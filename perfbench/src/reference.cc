#include "reference.h"

namespace perfbench {

std::vector<double> BrandesReference(uint32_t num_nodes,
                                     const std::vector<Edge>& edges) {
  const uint32_t n = num_nodes;
  std::vector<uint32_t> offset(n + 1, 0), adj(2 * edges.size());
  for (const Edge& e : edges) {
    ++offset[e.first + 1];
    ++offset[e.second + 1];
  }
  for (uint32_t v = 0; v < n; ++v) offset[v + 1] += offset[v];
  std::vector<uint32_t> fill(offset.begin(), offset.end() - 1);
  for (const Edge& e : edges) {
    adj[fill[e.first]++] = e.second;
    adj[fill[e.second]++] = e.first;
  }

  std::vector<double> bc(n, 0.0), sigma(n), dep(n);
  std::vector<int64_t> dist(n);
  std::vector<uint32_t> order;
  order.reserve(n);
  for (uint32_t s = 0; s < n; ++s) {
    std::fill(dist.begin(), dist.end(), -1);
    std::fill(sigma.begin(), sigma.end(), 0.0);
    std::fill(dep.begin(), dep.end(), 0.0);
    order.clear();
    dist[s] = 0;
    sigma[s] = 1.0;
    order.push_back(s);
    for (size_t head = 0; head < order.size(); ++head) {
      const uint32_t v = order[head];
      for (uint32_t i = offset[v]; i < offset[v + 1]; ++i) {
        const uint32_t w = adj[i];
        if (dist[w] < 0) {
          dist[w] = dist[v] + 1;
          order.push_back(w);
        }
        if (dist[w] == dist[v] + 1) sigma[w] += sigma[v];
      }
    }
    for (size_t i = order.size(); i-- > 1;) {
      const uint32_t w = order[i];
      for (uint32_t j = offset[w]; j < offset[w + 1]; ++j) {
        const uint32_t v = adj[j];
        if (dist[v] == dist[w] - 1) dep[v] += sigma[v] / sigma[w] * (1.0 + dep[w]);
      }
      bc[w] += dep[w];
    }
  }
  const double pairs = static_cast<double>(n) * (n - 1.0);
  for (double& x : bc) x /= pairs;
  return bc;
}

}  // namespace perfbench
