/**
 * @file
 * Per-translation equivalence proofs (the verify engine).
 *
 * For every installed translation the TOL captures a VerifyUnit: the
 * recorded construction path (entry, PathElems, trip check, end
 * spec), the frozen pre-chaining host words, the exit-table slice and
 * FP-pool snapshot the region was installed with. The verifier then
 *
 *  1. symbolically executes the host words under the hemu semantics,
 *     enumerating every feasible path with its constraints and guard
 *     events (symhost),
 *  2. rebuilds the region's *unoptimized* IR from the recorded path
 *     with Frontend::build — deterministic in the captured inputs —
 *     and evaluates it symbolically (symguest), and
 *  3. discharges, per host path, the obligations that make the
 *     translation architecturally invisible:
 *
 *     - the branch ladder matches the region's cond-exit ladder in
 *       order, outcome, and condition (catches flipped exits),
 *     - every guest assert in the exit's program-order prefix is
 *       enforced on the path with the same id/polarity/condition
 *       (catches dropped guards); hoisting extra asserts is sound,
 *     - every guest div in the prefix has a host div with equivalent
 *       operands (fault equivalence) unless it provably cannot fault,
 *     - every guest location and the guest memory state agree with
 *       the host's at the exit point, under the path constraints,
 *     - indirect exits produce an equivalent dynamic target, and
 *     - the promote path (profiling preamble) preserves the entire
 *       pre-region state.
 *
 *     Guard-failure paths are covered structurally: the region opens
 *     with CKPT, every guest-visible effect stays buffered until the
 *     single COMMIT, and guards only execute speculatively, so a
 *     firing guard rolls back to exactly the pre-region state
 *     (symhost refuses regions violating that discipline).
 *
 * A proof failure is Refuted and carries a concrete, minimized
 * counterexample witness; obligations the engine can neither prove
 * nor refute are reported Unknown, never silently passed.
 */

#ifndef DARCO_VERIFY_VERIFIER_HH
#define DARCO_VERIFY_VERIFIER_HH

#include <optional>
#include <string>
#include <vector>

#include "tol/frontend.hh"
#include "tol/ir.hh"
#include "tol/registry.hh"
#include "verify/expr.hh"

namespace darco::verify
{

/** Everything needed to re-derive and check one translation. */
struct VerifyUnit
{
    GAddr entry = 0;
    tol::RegionMode mode = tol::RegionMode::BB;
    std::vector<tol::PathElem> path;
    std::optional<tol::TripCheck> trip;
    std::optional<tol::Frontend::EndSpec> end;
    bool profile = false;   //!< promotion preamble present
    bool fuseFlags = true;  //!< frontend option at build time
    std::vector<u32> words; //!< frozen pre-chaining host words
    u32 exitIdBase = 0;
    u32 promoteExitId = ~0u; //!< global id of the promote exit
    std::vector<tol::ExitDesc> exits; //!< registry exit slice
    std::vector<double> fpPool;       //!< FLDC pool snapshot
    u32 tid = ~0u;
};

enum class Verdict : u8
{
    Proved,
    Refuted,
    Unknown,
};

struct VerifyResult
{
    Verdict verdict = Verdict::Proved;
    GAddr entry = 0;
    tol::RegionMode mode = tol::RegionMode::BB;
    u32 tid = ~0u;
    std::string detail;  //!< failed/undecided obligation
    std::string witness; //!< rendered counterexample (Refuted)
};

struct VerifyReport
{
    std::vector<VerifyResult> results;
    u32 proved = 0;
    u32 refuted = 0;
    u32 unknown = 0;

    void
    add(VerifyResult r)
    {
        switch (r.verdict) {
          case Verdict::Proved: ++proved; break;
          case Verdict::Refuted: ++refuted; break;
          case Verdict::Unknown: ++unknown; break;
        }
        results.push_back(std::move(r));
    }
    bool clean() const { return refuted == 0 && unknown == 0; }
    std::string summary() const;
};

/** Prove one translation equivalent to its guest path. */
VerifyResult verifyUnit(const VerifyUnit &unit);

} // namespace darco::verify

#endif // DARCO_VERIFY_VERIFIER_HH
