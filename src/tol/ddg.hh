/**
 * @file
 * Data Dependence Graph construction and list scheduling (paper
 * Section V-B3: "The DDG is then fed to the instruction scheduler
 * that uses a conventional list scheduling algorithm").
 *
 * Nodes are region items. Edges:
 *  - value dependences (def -> use) with producer latency,
 *  - memory ordering: store->load (breakable if only may-alias;
 *    breaking hoists the load and marks it speculative -> LWS/FLDS),
 *    store->store and load->store (never broken: stores execute in
 *    order, and stores never hoist above prior loads),
 *  - control ordering around side exits: stores and other side exits
 *    may not cross a CondExit in either direction; asserts may hoist
 *    above a CondExit but must not sink below one.
 */

#ifndef DARCO_TOL_DDG_HH
#define DARCO_TOL_DDG_HH

#include <vector>

#include "tol/ir.hh"

namespace darco::tol
{

/** One dependence edge, kept at one of its ends. */
struct DDGEdge
{
    u32 node;       //!< the other end: successor in succs, pred in preds
    u8 latency;
    bool breakable; //!< may-alias store->load, removable by speculation
};

/**
 * The dependence graph over region items. Each direction's edges sit
 * in one flat array grouped by item: item k's successor edges are
 * succs[succBegin[k]] up to succs[succBegin[k + 1]], and its
 * predecessor edges are laid out the same way in preds. Every edge
 * points forward in item order.
 */
struct DDG
{
    std::vector<DDGEdge> succs, preds;
    std::vector<u32> succBegin, predBegin; //!< n + 1 offsets each
    std::vector<u32> predCount;      //!< unbreakable preds
    std::vector<u32> breakablePreds; //!< breakable preds
    std::vector<u32> priority;       //!< critical-path height
    u64 edgeCount = 0;
};

/** Producer latency model used for scheduling priorities. */
u8 irLatency(IROp op);

/** Build the DDG for a region. */
DDG buildDDG(const Region &r);

/** Scheduler knobs. */
struct SchedOptions
{
    bool enable = true;
    bool speculateMem = true; //!< allow breaking store->load edges
};

/**
 * List-schedule the region in place. Returns the number of loads
 * converted to speculative loads.
 */
u32 scheduleRegion(Region &r, const SchedOptions &opts);

} // namespace darco::tol

#endif // DARCO_TOL_DDG_HH
