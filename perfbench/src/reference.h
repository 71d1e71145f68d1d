#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

// Ground truth written apart from the library: plain Brandes betweenness
// on an edge list.

#include <cstdint>
#include <vector>

#include "gen.h"

namespace perfbench {

// Exact betweenness of every node, normalised over ordered pairs as in
// Eq. 3 of the paper: bc(v) = 1/(n(n-1)) * sum_{s != v != t} sigma_st(v) /
// sigma_st.
std::vector<double> BrandesReference(uint32_t num_nodes,
                                     const std::vector<Edge>& edges);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
