#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

// Correctness checks the benchmark applies to the program's answers. They
// use only the benchmark's own reference values and edge lists.

#include <cstdint>
#include <string>
#include <vector>

#include "gen.h"
#include "graph/graph.h"

namespace perfbench {

// One query's answer: the target nodes and their estimates.
struct Answer {
  std::vector<uint32_t> nodes;
  std::vector<double> estimates;
  uint64_t samples = 0;
};

// The largest absolute error of `answer` against `exact` (indexed by node).
// A query fails the (epsilon, delta) guarantee when this is >= epsilon.
double MaxError(const Answer& answer, const std::vector<double>& exact);

// The largest number of failing queries out of `queries` that a correct
// estimator with failure probability `delta` per query exceeds with
// probability at most `alpha`: the smallest k with P(Bin(queries, delta) >
// k) <= alpha.
uint32_t BinomialTailLimit(uint32_t queries, double delta, double alpha);

struct ErrorBoundVerdict {
  uint32_t queries = 0;
  uint32_t failing = 0;  // queries with some error >= epsilon
  uint32_t allowed = 0;  // BinomialTailLimit(queries, delta, kTailAlpha)
  double max_error = 0.0;
  bool ok() const { return failing <= allowed; }
};

inline constexpr double kTailAlpha = 1e-3;

ErrorBoundVerdict CheckErrorBound(const std::vector<Answer>& answers,
                                  const std::vector<double>& exact,
                                  double epsilon, double delta);

// Bit-for-bit equality of two answers (nodes, estimate bits, sample
// count). On a difference, `why` says where.
bool SameBits(const Answer& a, const Answer& b, std::string* why);

// `g` has `num_nodes` nodes and exactly the undirected edge set `edges`,
// with the same node ids.
bool SameEdgeSet(const saphyra::Graph& g, uint32_t num_nodes,
                 const std::vector<Edge>& edges, std::string* why);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
