// Output checks. Every rung's output must be byte-identical to the
// direct runtime's output on the same trace once engine-assigned ids
// are zeroed; the order is the docs/SHARDING.md canonical one (serial
// data-phase order, then the key-sorted finish tail), which the direct
// runtime itself produces.
#ifndef PERFBENCH_CHECK_H_
#define PERFBENCH_CHECK_H_

#include <string>
#include <vector>

#include "model/segment.h"
#include "store/segment_tree.h"

namespace perfbench {

void ZeroIds(std::vector<pulse::Segment>* segments);

/// Empty when equal; otherwise the first divergent (time, key, attr)
/// and what differs there.
std::string FirstDivergence(const std::vector<pulse::Segment>& expected,
                            const std::vector<pulse::Segment>& actual);

/// Compares (after zeroing ids in both) and records a mismatch in the
/// ledger, labelled with the rung and session. True when equal.
bool CheckOutputs(const std::string& rung, size_t session,
                  std::vector<pulse::Segment> expected,
                  std::vector<pulse::Segment> actual);

/// Exact equality of two range-aggregate answers.
bool SameAggregate(const pulse::store::RangeAggregate& a,
                   const pulse::store::RangeAggregate& b);

}  // namespace perfbench

#endif  // PERFBENCH_CHECK_H_
