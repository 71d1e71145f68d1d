#include "checks.h"

#include <cmath>
#include <cstring>

namespace perfbench {

double MaxError(const Answer& answer, const std::vector<double>& exact) {
  double worst = 0.0;
  for (size_t i = 0; i < answer.nodes.size(); ++i) {
    const double err = std::fabs(answer.estimates[i] - exact[answer.nodes[i]]);
    // A NaN estimate is as wrong as an estimate can be.
    worst = std::isnan(err) ? INFINITY : std::max(worst, err);
  }
  return worst;
}

uint32_t BinomialTailLimit(uint32_t queries, double delta, double alpha) {
  // Accumulate P(X = k) upward until the remaining tail is <= alpha.
  double pmf = std::pow(1.0 - delta, queries);  // P(X = 0)
  double cdf = pmf;
  uint32_t k = 0;
  while (k < queries && 1.0 - cdf > alpha) {
    pmf *= static_cast<double>(queries - k) / (k + 1) * delta / (1.0 - delta);
    cdf += pmf;
    ++k;
  }
  return k;
}

ErrorBoundVerdict CheckErrorBound(const std::vector<Answer>& answers,
                                  const std::vector<double>& exact,
                                  double epsilon, double delta) {
  ErrorBoundVerdict v;
  v.queries = static_cast<uint32_t>(answers.size());
  v.allowed = BinomialTailLimit(v.queries, delta, kTailAlpha);
  for (const Answer& a : answers) {
    const double err = MaxError(a, exact);
    v.max_error = std::max(v.max_error, err);
    if (!(err < epsilon)) ++v.failing;
  }
  return v;
}

bool SameBits(const Answer& a, const Answer& b, std::string* why) {
  if (a.nodes != b.nodes) {
    *why = "target lists differ";
    return false;
  }
  if (a.estimates.size() != b.estimates.size()) {
    *why = "estimate counts differ";
    return false;
  }
  for (size_t i = 0; i < a.estimates.size(); ++i) {
    if (std::memcmp(&a.estimates[i], &b.estimates[i], sizeof(double)) != 0) {
      *why = "estimate of node " + std::to_string(a.nodes[i]) + " differs";
      return false;
    }
  }
  if (a.samples != b.samples) {
    *why = "sample counts differ";
    return false;
  }
  return true;
}

bool SameEdgeSet(const saphyra::Graph& g, uint32_t num_nodes,
                 const std::vector<Edge>& edges, std::string* why) {
  if (g.num_nodes() != num_nodes) {
    *why = "graph has " + std::to_string(g.num_nodes()) + " nodes, expected " +
           std::to_string(num_nodes);
    return false;
  }
  if (g.num_edges() != edges.size()) {
    *why = "graph has " + std::to_string(g.num_edges()) + " edges, expected " +
           std::to_string(edges.size());
    return false;
  }
  for (const Edge& e : edges) {
    if (e.second >= g.num_nodes() || !g.HasEdge(e.first, e.second)) {
      *why = "edge " + std::to_string(e.first) + "-" +
             std::to_string(e.second) + " missing";
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
