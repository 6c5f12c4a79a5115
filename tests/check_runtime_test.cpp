// hetflow-verify end-to-end: RuntimeOptions::validate wired through
// submit() and wait_all(), audit snapshots, and the JSON round trip.
#include "check/audit.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "check/audit_file.hpp"
#include "helpers.hpp"
#include "sched/mct.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace hetflow::check {
namespace {

using hetflow::testing::cpu_gpu_codelet;
using hetflow::testing::cpu_only_codelet;

core::RuntimeOptions validating_options() {
  core::RuntimeOptions options;
  options.validate = true;
  return options;
}

TEST(RuntimeValidate, CleanChainPassesValidation) {
  const hw::Platform p = hw::make_cpu_only(4);
  core::Runtime rt(p, std::make_unique<sched::MctScheduler>(),
                   validating_options());
  const auto d = rt.register_data("acc", 1024);
  for (int i = 0; i < 4; ++i) {
    rt.submit(util::format("link%d", i), cpu_only_codelet(), 1e9,
              {{d, data::AccessMode::ReadWrite}});
  }
  EXPECT_NO_THROW(rt.wait_all());
  EXPECT_EQ(rt.stats().tasks_completed, 4u);
}

TEST(RuntimeValidate, GpuOffloadWithTransfersPassesValidation) {
  const hw::Platform p = hw::make_workstation();
  core::Runtime rt(p, std::make_unique<sched::MctScheduler>(),
                   validating_options());
  const auto a = rt.register_data("a", 4 << 20);
  const auto b = rt.register_data("b", 4 << 20);
  rt.submit("produce", cpu_gpu_codelet(), 8e9, {{a, data::AccessMode::Write}});
  rt.submit("transform", cpu_gpu_codelet(), 8e9,
            {{a, data::AccessMode::Read}, {b, data::AccessMode::Write}});
  rt.submit("reduce", cpu_gpu_codelet(), 8e9, {{b, data::AccessMode::Read}});
  EXPECT_NO_THROW(rt.wait_all());
}

TEST(RuntimeValidate, DuplicateHandleInAccessListIsRejectedAtSubmit) {
  const hw::Platform p = hw::make_cpu_only(2);
  core::Runtime rt(p, std::make_unique<sched::MctScheduler>(),
                   validating_options());
  const auto d = rt.register_data("d", 1024);
  EXPECT_THROW(rt.submit("dup", cpu_only_codelet(), 1e9,
                         {{d, data::AccessMode::Read},
                          {d, data::AccessMode::Write}}),
               ValidationError);
}

TEST(RuntimeValidate, DuplicatesAreReportedInListOrderAtAnyLength) {
  // Every access whose handle an earlier one names is reported, in list
  // order, with the same message whether the list is short enough to
  // scan or long enough to need a set.
  for (const std::size_t length : {4u, 40u}) {
    std::vector<data::Access> accesses;
    for (std::size_t i = 0; i < length; ++i) {
      accesses.push_back(
          {static_cast<data::DataId>(i), data::AccessMode::Read});
    }
    EXPECT_TRUE(check_accesses(accesses, "clean").empty()) << length;
    accesses[2].data = 0;
    accesses[3].data = 0;
    accesses.back().data = 1;
    std::vector<std::string> messages;
    for (const Violation& violation : check_accesses(accesses, "dup")) {
      EXPECT_EQ(violation.kind, ViolationKind::AccessMode);
      messages.push_back(violation.message);
    }
    const std::string zero =
        "task 'dup' lists handle 0 more than once in its access list";
    const std::string one =
        "task 'dup' lists handle 1 more than once in its access list";
    EXPECT_EQ(messages, (length == 4 ? std::vector<std::string>{zero, one}
                                     : std::vector<std::string>{zero, zero,
                                                                one}))
        << length;
  }
}

TEST(RuntimeValidate, DuplicateAccessIsAcceptedWithoutValidate) {
  // Without validate the legacy behavior stands (last access wins in the
  // dependency inference) — the checker must be strictly opt-in.
  const hw::Platform p = hw::make_cpu_only(2);
  core::Runtime rt(p, std::make_unique<sched::MctScheduler>());
  const auto d = rt.register_data("d", 1024);
  EXPECT_NO_THROW(rt.submit("dup", cpu_only_codelet(), 1e9,
                            {{d, data::AccessMode::Read},
                             {d, data::AccessMode::Write}}));
  rt.wait_all();
}

TEST(RuntimeAudit, AuditOfCompletedRunPasses) {
  const hw::Platform p = hw::make_workstation();
  core::Runtime rt(p, std::make_unique<sched::MctScheduler>());
  const auto d = rt.register_data("d", 1 << 20);
  rt.submit("w", cpu_gpu_codelet(), 4e9, {{d, data::AccessMode::Write}});
  rt.submit("r", cpu_gpu_codelet(), 4e9, {{d, data::AccessMode::Read}});
  rt.wait_all();
  const CheckReport report = audit_run(rt);
  EXPECT_TRUE(report.passed()) << report.summary();
  // A clean run still shows what the race sweep examined: both uses of d.
  EXPECT_NE(report.summary().find("handle uses: 2 checked"),
            std::string::npos)
      << report.summary();
}

TEST(RuntimeAudit, SnapshotCapturesTasksTopologyAndSpans) {
  const hw::Platform p = hw::make_workstation();
  core::Runtime rt(p, std::make_unique<sched::MctScheduler>());
  const auto d = rt.register_data("d", 1 << 20);
  rt.submit("w", cpu_gpu_codelet(), 4e9, {{d, data::AccessMode::Write}});
  rt.submit("r", cpu_gpu_codelet(), 4e9, {{d, data::AccessMode::Read}});
  rt.wait_all();

  const RunRecord run = snapshot_run(rt);
  EXPECT_EQ(run.tasks.size(), 2u);
  EXPECT_EQ(run.device_count, p.device_count());
  EXPECT_EQ(run.node_count, p.memory_node_count());
  EXPECT_EQ(run.handle_count(), 1u);
  EXPECT_FALSE(run.spans.empty());
  // The RAW edge w -> r must appear in the snapshot.
  ASSERT_EQ(run.tasks[1].dependencies.size(), 1u);
  EXPECT_EQ(run.tasks[1].dependencies[0], run.tasks[0].id);
  EXPECT_TRUE(run.tasks[0].completed);
  EXPECT_LE(run.tasks[0].end, run.tasks[1].start + 1e-9);
}

TEST(RuntimeAudit, AuditJsonRoundTripsAndStaysClean) {
  const hw::Platform p = hw::make_workstation();
  core::Runtime rt(p, std::make_unique<sched::MctScheduler>());
  const auto a = rt.register_data("a", 1 << 20);
  const auto b = rt.register_data("b", 2 << 20);
  rt.submit("w", cpu_gpu_codelet(), 4e9, {{a, data::AccessMode::Write}});
  rt.submit("t", cpu_gpu_codelet(), 4e9,
            {{a, data::AccessMode::Read}, {b, data::AccessMode::Write}});
  rt.wait_all();

  const AuditRecord original = snapshot_audit(rt);
  const AuditRecord parsed = parse_audit_json(to_audit_json(original));

  EXPECT_EQ(parsed.run.tasks.size(), original.run.tasks.size());
  EXPECT_EQ(parsed.run.device_count, original.run.device_count);
  EXPECT_EQ(parsed.run.handle_bytes, original.run.handle_bytes);
  EXPECT_EQ(parsed.run.spans.size(), original.run.spans.size());
  EXPECT_EQ(parsed.directory.states, original.directory.states);
  EXPECT_EQ(parsed.directory.claimed_resident_bytes,
            original.directory.claimed_resident_bytes);
  for (std::size_t i = 0; i < original.run.tasks.size(); ++i) {
    const TaskRecord& want = original.run.tasks[i];
    const TaskRecord& got = parsed.run.tasks[i];
    EXPECT_EQ(got.id, want.id);
    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(got.dependencies, want.dependencies);
    EXPECT_EQ(got.device, want.device);
    EXPECT_DOUBLE_EQ(got.start, want.start);
    EXPECT_DOUBLE_EQ(got.end, want.end);
    ASSERT_EQ(got.accesses.size(), want.accesses.size());
    for (std::size_t j = 0; j < want.accesses.size(); ++j) {
      EXPECT_EQ(got.accesses[j].data, want.accesses[j].data);
      EXPECT_EQ(got.accesses[j].mode, want.accesses[j].mode);
    }
  }

  // A faithful round trip audits clean, same as the live run.
  EXPECT_TRUE(check_races(parsed.run).empty());
  EXPECT_TRUE(check_trace(parsed.run).empty());
  EXPECT_TRUE(check_directory(parsed.directory).empty());
}

TEST(RuntimeAudit, ReloadedAuditSpansNameTheirTasks) {
  // Span names are views; a loaded audit must own what they point at,
  // because the parsed JSON document is gone by the time anyone reads
  // them (hetflow_check --audit prints them in trace violations).
  const hw::Platform p = hw::make_workstation();
  core::Runtime rt(p, std::make_unique<sched::MctScheduler>());
  const auto d = rt.register_data("d", 1 << 20);
  for (int i = 0; i < 6; ++i) {
    rt.submit(util::format("long-enough-to-leave-sso-stage-%d", i),
              cpu_gpu_codelet(), 2e9, {{d, data::AccessMode::ReadWrite}});
  }
  rt.wait_all();
  const std::string path =
      ::testing::TempDir() + "reloaded_audit_span_names.json";
  save_audit(snapshot_audit(rt), path);
  const AuditRecord loaded = load_audit(path);
  std::remove(path.c_str());

  ASSERT_EQ(loaded.run.spans.size(), rt.tracer().spans().size());
  for (const trace::Span& span : loaded.run.spans) {
    ASSERT_LT(span.task_id, loaded.run.tasks.size());
    EXPECT_EQ(span.name, loaded.run.tasks[span.task_id].name);
  }
  // Copies share the store: the views outlive the record they came from.
  const RunRecord copy = AuditRecord(loaded).run;
  for (const trace::Span& span : copy.spans) {
    EXPECT_EQ(span.name, copy.tasks[span.task_id].name);
  }
}

/// A real run's audit document (two memory nodes, one dependency edge,
/// spans), for the malformed-document cases below to break.
util::Json valid_audit_document() {
  const hw::Platform p = hw::make_workstation();
  core::Runtime rt(p, std::make_unique<sched::MctScheduler>());
  const auto d = rt.register_data("d", 1 << 20);
  rt.submit("produce", cpu_gpu_codelet(), 8e9, {{d, data::AccessMode::Write}});
  rt.submit("consume", cpu_gpu_codelet(), 8e9, {{d, data::AccessMode::Read}});
  rt.wait_all();
  return util::Json::parse(to_audit_json(snapshot_audit(rt)));
}

TEST(RuntimeAudit, ParseRejectsMalformedDocuments) {
  EXPECT_ANY_THROW(parse_audit_json("not json"));
  EXPECT_ANY_THROW(parse_audit_json("{}"));
  EXPECT_ANY_THROW(
      parse_audit_json(R"({"format":"something-else","version":1})"));

  const util::Json valid = valid_audit_document();
  ASSERT_NO_THROW(parse_audit_json(valid.dump()));
  ASSERT_GE(valid.at("directory").at("node_count").as_number(), 2);
  ASSERT_EQ(valid.at("run").at("tasks").as_array().at(1).at("deps").size(),
            1u);
  // Each case breaks one field of the valid document; the ParseError
  // must name it.
  const auto rejects = [&valid](const char* field, const auto& mutate) {
    util::Json doc = valid;
    mutate(doc);
    try {
      parse_audit_json(doc.dump());
      ADD_FAILURE() << "accepted a malformed '" << field << "'";
    } catch (const ParseError& error) {
      EXPECT_NE(std::string(error.what()).find(field), std::string::npos)
          << error.what();
    }
  };
  const auto run = [](util::Json& doc) -> util::Json& { return doc["run"]; };
  const auto dir = [](util::Json& doc) -> util::Json& {
    return doc["directory"];
  };
  const auto deps = [](util::Json& doc) -> util::Json& {
    return doc["run"]["tasks"].as_array().at(1)["deps"];
  };
  const auto one = [](util::Json value) {
    util::Json array = util::Json::array();
    array.push_back(std::move(value));
    return array;
  };

  // Integer fields: non-integral, negative, out of range, not a number.
  rejects("run.tasks.deps", [&](util::Json& doc) { deps(doc) = one(1e30); });
  rejects("run.tasks.deps", [&](util::Json& doc) { deps(doc) = one(0.5); });
  rejects("run.tasks.deps", [&](util::Json& doc) { deps(doc) = one(-1); });
  rejects("run.tasks.deps", [&](util::Json& doc) { deps(doc) = one("0"); });
  rejects("run.tasks.deps", [&](util::Json& doc) { deps(doc) = 0; });
  rejects("run.node_count",
          [&](util::Json& doc) { run(doc)["node_count"] = 1.5; });
  rejects("directory.node_count",
          [&](util::Json& doc) { dir(doc)["node_count"] = -2; });
  rejects("run.tasks.device", [&](util::Json& doc) {
    doc["run"]["tasks"].as_array().at(0)["device"] = 4294967296.0;
  });
  rejects("run.spans.device", [&](util::Json& doc) {
    doc["run"]["spans"].as_array().at(0)["device"] = 0.5;
  });
  rejects("run.handle_bytes",
          [&](util::Json& doc) { run(doc)["handle_bytes"] = one(-8); });
  rejects("run.tasks.accesses.data", [&](util::Json& doc) {
    doc["run"]["tasks"].as_array().at(0)["accesses"].as_array().at(0)["data"] =
        -1;
  });
  rejects("run.spans.task", [&](util::Json& doc) {
    doc["run"]["spans"].as_array().at(0)["task"] = 0.25;
  });
  rejects("directory.capacity_bytes",
          [&](util::Json& doc) { dir(doc)["capacity_bytes"] = one(1e300); });

  // Array lengths that disagree with their counts.
  rejects("directory.claimed_resident_bytes", [&](util::Json& doc) {
    dir(doc)["claimed_resident_bytes"] = util::Json::array();
  });
  rejects("directory.capacity_bytes", [&](util::Json& doc) {
    dir(doc)["capacity_bytes"] = util::Json::array();
  });
  rejects("directory.capacity_bytes",
          [&](util::Json& doc) { dir(doc)["capacity_bytes"].push_back(1); });
  rejects("run.device_memory_node", [&](util::Json& doc) {
    run(doc)["device_memory_node"].as_array().pop_back();
  });
  rejects("run.handle_home",
          [&](util::Json& doc) { run(doc)["handle_home"].push_back(0); });
  rejects("directory.handle_bytes",
          [&](util::Json& doc) { dir(doc)["handle_bytes"].push_back(1); });
}

TEST(RuntimeAudit, CorruptedSnapshotIsCaughtNotVacuouslyAccepted) {
  // Take a real run's snapshot, break it, and make sure the checkers
  // notice — guards against a detector that silently checks nothing.
  const hw::Platform p = hw::make_cpu_only(4);
  core::Runtime rt(p, std::make_unique<sched::MctScheduler>());
  const auto d = rt.register_data("d", 1024);
  for (int i = 0; i < 3; ++i) {
    rt.submit(util::format("w%d", i), cpu_only_codelet(), 1e9,
              {{d, data::AccessMode::ReadWrite}});
  }
  rt.wait_all();

  RunRecord run = snapshot_run(rt);
  ASSERT_EQ(run.tasks.size(), 3u);
  // Drop every dependency edge and force the first two intervals to
  // overlap: a genuine unordered conflicting overlap.
  for (TaskRecord& task : run.tasks) {
    task.dependencies.clear();
  }
  run.tasks[1].start = run.tasks[0].start;
  run.tasks[1].end = run.tasks[0].end;
  const auto violations = check_races(run);
  bool found = false;
  for (const Violation& violation : violations) {
    found |= violation.kind == ViolationKind::ConflictingOverlap;
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace hetflow::check
