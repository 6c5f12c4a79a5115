#include "workflow/generators.hpp"

#include <gtest/gtest.h>

#include "workflow/codelets.hpp"
#include "workflow/spec.hpp"

namespace hetflow::workflow {
namespace {

TEST(Workflow, BuilderAndValidation) {
  Workflow w("manual");
  const auto in = w.add_file("in", 100);
  const auto out = w.add_file("out", 200);
  w.add_task("t", "compute", 1e9, {in}, {out});
  EXPECT_NO_THROW(w.validate());
  EXPECT_EQ(w.task_count(), 1u);
  EXPECT_EQ(w.file_count(), 2u);
  EXPECT_EQ(w.total_bytes(), 300u);
  EXPECT_DOUBLE_EQ(w.total_flops(), 1e9);
  EXPECT_EQ(w.producer_of(out), 0u);
  EXPECT_EQ(w.producer_of(in), Workflow::npos);
}

TEST(Workflow, RejectsMultipleProducers) {
  Workflow w("bad");
  const auto f = w.add_file("f", 1);
  w.add_task("a", "compute", 1.0, {}, {f});
  w.add_task("b", "compute", 1.0, {}, {f});
  EXPECT_THROW(w.validate(), util::InvalidArgument);
}

TEST(Workflow, RejectsBadFileIndices) {
  Workflow w("bad");
  w.add_task("a", "compute", 1.0, {7}, {});
  EXPECT_THROW(w.validate(), util::InvalidArgument);
  Workflow writes("bad-write");
  writes.add_task("a", "compute", 1.0, {}, {3});
  EXPECT_THROW(writes.validate(), util::InvalidArgument);
}

TEST(Workflow, RejectsDependencyCycle) {
  Workflow w("loop");
  const auto f = w.add_file("f", 1);
  const auto g = w.add_file("g", 1);
  w.add_task("head", "compute", 1.0, {}, {});
  w.add_task("a", "compute", 1.0, {g}, {f});
  w.add_task("b", "compute", 1.0, {f}, {g});
  try {
    w.validate();
    FAIL() << "a cyclic workflow validated";
  } catch (const util::InvalidArgument& error) {
    EXPECT_STREQ(error.what(), "workflow 'loop' has a dependency cycle");
  }
  EXPECT_THROW(w.checked_order(), util::InvalidArgument);
}

/// checked_order() against the Digraph it replaces on submission: the
/// same order and the same producers.
void expect_order_matches_task_graph(const Workflow& w) {
  const Workflow::Order order = w.checked_order();
  EXPECT_EQ(order.tasks, w.task_graph().topological_order()) << w.name();
  ASSERT_EQ(order.producer.size(), w.file_count());
  for (std::size_t f = 0; f < w.file_count(); ++f) {
    EXPECT_EQ(order.producer[f], w.producer_of(f)) << w.name() << " file "
                                                    << f;
  }
}

TEST(Workflow, CheckedOrderMatchesTaskGraphForEverySpec) {
  for (const char* spec :
       {"montage:5", "epigenomics:2,3", "cybershake:2,3", "ligo:6,3",
        "sipht:3,2", "cholesky:4,64", "lu:4,64", "layered:5,4,1,1",
        "layered:6,5,2,9", "forkjoin:6,3,0.5,1", "forkjoin:4,2,0.9,5",
        "wavefront:5", "chain:7", "bag:6"}) {
    expect_order_matches_task_graph(make_workflow_from_spec(spec));
  }
}

TEST(Workflow, CheckedOrderHandlesConsumerFirstListingAndDuplicateReads) {
  // Tasks listed consumers first; "join" reads f twice (a duplicate edge
  // from "make_f") and "tail" reads and rewrites its own scratch file.
  Workflow w("consumer-first");
  const auto f = w.add_file("f", 1);
  const auto g = w.add_file("g", 1);
  const auto h = w.add_file("h", 1);
  const auto scratch = w.add_file("scratch", 1);
  w.add_task("join", "compute", 1.0, {f, f, g}, {h});
  w.add_task("make_f", "compute", 1.0, {}, {f});
  w.add_task("make_g", "compute", 1.0, {}, {g});
  w.add_task("tail", "compute", 1.0, {h, scratch}, {scratch});
  EXPECT_EQ(w.task_graph().edge_count(), 4u);
  EXPECT_EQ(w.checked_order().tasks,
            (std::vector<std::size_t>{1, 2, 0, 3}));
  expect_order_matches_task_graph(w);
}

TEST(Workflow, DepthAndWidth) {
  Workflow w("shape");
  const auto a = w.add_file("a", 1);
  const auto b = w.add_file("b", 1);
  const auto c = w.add_file("c", 1);
  w.add_task("src", "compute", 1.0, {}, {a});
  w.add_task("l", "compute", 1.0, {a}, {b});
  w.add_task("r", "compute", 1.0, {a}, {c});
  w.add_task("sink", "compute", 1.0, {b, c}, {});
  EXPECT_EQ(w.depth(), 3u);
  EXPECT_EQ(w.max_width(), 2u);
}

TEST(Montage, ShapeMatchesPublishedStructure) {
  const Workflow w = make_montage(16);
  w.validate();
  // 16 project + 29 diffs + concat + bgmodel + 16 background + imgtbl +
  // add + shrink + jpeg.
  EXPECT_EQ(w.task_count(), 16u + 29u + 1u + 1u + 16u + 1u + 1u + 1u + 1u);
  EXPECT_EQ(w.depth(), 9u);
  EXPECT_EQ(w.max_width(), 29u);
  EXPECT_EQ(w.name(), "montage-16");
}

TEST(Montage, ScaleMultipliesWork) {
  const Workflow small = make_montage(8, 1.0);
  const Workflow big = make_montage(8, 3.0);
  EXPECT_NEAR(big.total_flops() / small.total_flops(), 3.0, 1e-9);
  EXPECT_NEAR(static_cast<double>(big.total_bytes()) /
                  static_cast<double>(small.total_bytes()),
              3.0, 0.01);
}

TEST(Montage, RejectsTooFewTiles) {
  EXPECT_THROW(make_montage(1), util::InvalidArgument);
  try {
    make_workflow_from_spec("montage:1");
    FAIL() << "montage:1 was accepted";
  } catch (const util::InvalidArgument& error) {
    EXPECT_STREQ(error.what(), "montage needs at least 2 tiles, got 1");
  }
}

TEST(Epigenomics, ShapeAndKinds) {
  const Workflow w = make_epigenomics(2, 3);
  w.validate();
  // per lane: split + 3*(4 chain stages) + merge = 14; global: 3.
  EXPECT_EQ(w.task_count(), 2u * 14u + 3u);
  const CodeletLibrary lib = CodeletLibrary::standard();
  for (const WorkflowTask& task : w.tasks()) {
    EXPECT_TRUE(lib.contains(task.kind)) << task.kind;
  }
  EXPECT_EQ(w.depth(), 9u);  // split,4 chain,laneMerge,global,maq,pileup
}

TEST(Cybershake, Shape) {
  const Workflow w = make_cybershake(3, 10);
  w.validate();
  // per site: 2 extract + 10 synth + 10 peak + 2 zips = 24.
  EXPECT_EQ(w.task_count(), 3u * 24u);
  EXPECT_EQ(w.max_width(), 33u);  // 30 peak-calcs + 3 per-site ZipSeis on one level
}

TEST(Ligo, Shape) {
  const Workflow w = make_ligo(10, 4);
  w.validate();
  // 10 bank + 10 inspiral + 3 thinca + 3 trig + 1 sire.
  EXPECT_EQ(w.task_count(), 27u);
  EXPECT_EQ(w.depth(), 5u);
}

TEST(Sipht, Shape) {
  const Workflow w = make_sipht(4, 6);
  w.validate();
  // per region: 6 patser + concat + 6 analyses + srna = 14; final: 1.
  EXPECT_EQ(w.task_count(), 4u * 14u + 1u);
  EXPECT_EQ(w.depth(), 4u);  // patser -> concat -> srna -> annotate
  EXPECT_FALSE(w.task_graph().has_cycle());
  const CodeletLibrary lib = CodeletLibrary::standard();
  for (const WorkflowTask& task : w.tasks()) {
    EXPECT_TRUE(lib.contains(task.kind)) << task.kind;
  }
}

TEST(Sipht, WideThenPointShape) {
  const Workflow w = make_sipht(3, 12);
  // The widest level holds every region's independent analyses.
  EXPECT_GE(w.max_width(), 3u * 12u);
  // Exactly one sink task (the final annotation).
  EXPECT_EQ(w.task_graph().sinks().size(), 1u);
}

TEST(RandomLayered, ShapeAndDeterminism) {
  const Workflow a = make_random_layered(5, 8, 1.0, 42);
  const Workflow b = make_random_layered(5, 8, 1.0, 42);
  a.validate();
  EXPECT_EQ(a.task_count(), 40u);
  EXPECT_EQ(a.depth(), 5u);
  // Deterministic in the seed.
  EXPECT_EQ(a.total_flops(), b.total_flops());
  EXPECT_EQ(a.total_bytes(), b.total_bytes());
  const Workflow c = make_random_layered(5, 8, 1.0, 43);
  EXPECT_NE(a.total_flops(), c.total_flops());
}

TEST(RandomLayered, CcrScalesFileSizes) {
  const Workflow low = make_random_layered(4, 6, 0.1, 7);
  const Workflow high = make_random_layered(4, 6, 10.0, 7);
  EXPECT_DOUBLE_EQ(low.total_flops(), high.total_flops());
  EXPECT_NEAR(static_cast<double>(high.total_bytes()) /
                  static_cast<double>(low.total_bytes()),
              100.0, 1.0);
}

TEST(ForkJoin, ShapeAndSkew) {
  const Workflow w = make_fork_join(6, 3, 0.0, 1);
  w.validate();
  EXPECT_EQ(w.task_count(), 3u * 7u);  // 6 branches + join, per stage
  EXPECT_EQ(w.depth(), 6u);
  EXPECT_EQ(w.max_width(), 6u);
  // sigma = 0 -> all branch tasks equal cost.
  const Workflow skewed = make_fork_join(6, 1, 1.2, 1);
  double lo = 1e300;
  double hi = 0.0;
  for (const WorkflowTask& task : skewed.tasks()) {
    if (task.kind == "compute") {
      lo = std::min(lo, task.flops);
      hi = std::max(hi, task.flops);
    }
  }
  EXPECT_GT(hi / lo, 2.0);
}

TEST(Wavefront, Shape) {
  const Workflow w = make_wavefront(4);
  w.validate();
  EXPECT_EQ(w.task_count(), 16u);
  EXPECT_EQ(w.depth(), 7u);   // 2n-1 anti-diagonals
  EXPECT_EQ(w.max_width(), 4u);
}

TEST(ChainAndBag, Shapes) {
  const Workflow chain = make_chain(10, 1e6, 64);
  chain.validate();
  EXPECT_EQ(chain.depth(), 10u);
  EXPECT_EQ(chain.max_width(), 1u);
  const Workflow bag = make_bag(10, 1e6, 64);
  bag.validate();
  EXPECT_EQ(bag.depth(), 1u);
  EXPECT_EQ(bag.max_width(), 10u);
}

TEST(Describe, MentionsNameAndCounts) {
  const std::string text = make_montage(8).describe();
  EXPECT_NE(text.find("montage-8"), std::string::npos);
  EXPECT_NE(text.find("tasks"), std::string::npos);
}

TEST(CodeletLibrary, StandardCoversGeneratorKinds) {
  const CodeletLibrary lib = CodeletLibrary::standard();
  EXPECT_GT(lib.size(), 25u);
  for (const Workflow& w :
       {make_montage(4), make_epigenomics(1, 2), make_cybershake(1, 2),
        make_ligo(3, 2), make_wavefront(2), make_chain(2, 1.0, 1),
        make_random_layered(2, 2, 1.0, 1)}) {
    for (const WorkflowTask& task : w.tasks()) {
      EXPECT_TRUE(lib.contains(task.kind))
          << w.name() << " kind " << task.kind;
    }
  }
}

TEST(CodeletLibrary, GetOrGenericFallsBack) {
  const CodeletLibrary lib = CodeletLibrary::standard();
  EXPECT_THROW(lib.get("no-such-kind"), util::InvalidArgument);
  const core::CodeletPtr generic = lib.get_or_generic("no-such-kind");
  EXPECT_EQ(generic->name(), "generic");
}

TEST(CodeletLibrary, RegisterReplaces) {
  CodeletLibrary lib;
  EXPECT_FALSE(lib.contains("k"));
  lib.register_codelet("k",
                       core::Codelet::make("k1", {{hw::DeviceType::Cpu, 0.5}}));
  lib.register_codelet("k",
                       core::Codelet::make("k2", {{hw::DeviceType::Cpu, 0.6}}));
  EXPECT_EQ(lib.get("k")->name(), "k2");
}

class GeneratorSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GeneratorSizeSweep, MontageValidAtAllSizes) {
  const Workflow w = make_montage(GetParam());
  EXPECT_NO_THROW(w.validate());
  EXPECT_FALSE(w.task_graph().has_cycle());
}

TEST_P(GeneratorSizeSweep, WavefrontValidAtAllSizes) {
  const Workflow w = make_wavefront(GetParam());
  EXPECT_NO_THROW(w.validate());
  EXPECT_EQ(w.task_count(), GetParam() * GetParam());
}

INSTANTIATE_TEST_SUITE_P(Sizes, GeneratorSizeSweep,
                         ::testing::Values(2u, 5u, 16u, 40u));

}  // namespace
}  // namespace hetflow::workflow
