// hetflow-verify: auditing a live Runtime.
//
// snapshot_* turn the runtime's state into the plain records the
// checkers consume; audit() runs every end-of-run checker of a record
// (race detector, trace timeline, coherence directory) and audit_run()
// adds the event-queue drain. Runtime::wait_all() calls audit_run() and
// enforce() when RuntimeOptions::validate is set.
#pragma once

#include <span>
#include <vector>

#include "check/invariants.hpp"
#include "check/race.hpp"
#include "check/record.hpp"
#include "check/violation.hpp"
#include "core/runtime.hpp"

namespace hetflow::check {

/// Copies tasks (accesses, dependency edges, execution intervals),
/// platform topology and tracer spans out of the runtime.
RunRecord snapshot_run(const core::Runtime& runtime);

/// snapshot_run plus the coherence-directory snapshot (the artifact
/// hetflow_run --audit-out serializes).
AuditRecord snapshot_audit(const core::Runtime& runtime);

/// Runs the race, trace and directory checkers against a record and
/// notes how much each examined.
CheckReport audit(const AuditRecord& record);

/// audit(snapshot_audit(runtime)) plus the event-queue drain check.
/// Meaningful after wait_all() has drained (mid-run audits see
/// half-executed state and will report in-flight tasks as suspicious).
CheckReport audit_run(const core::Runtime& runtime);

/// Submit-time access-list sanity: duplicate handles in one access list
/// (the dependency inference would silently treat them as one access).
/// Allocates nothing for a clean list of up to 16 accesses.
std::vector<Violation> check_accesses(
    std::span<const data::Access> accesses, std::string_view task_name);

/// Throws ValidationError unless the report passed.
void enforce(const CheckReport& report);

}  // namespace hetflow::check
