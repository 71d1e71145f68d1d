#ifndef PERFBENCH_GEN_H_
#define PERFBENCH_GEN_H_

// Seeded input generators for the benchmark: graph surrogates (heavy-tailed
// social, thinned-grid road) and the NDJSON request streams of each
// workload. Everything is a pure function of the workload parameters and
// the seed, so the same seed always yields byte-identical files.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// SplitMix64: small, fast and stable across platforms and compilers, so the
// inputs never depend on the standard library's distributions.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n) by rejection (no modulo bias).
  uint64_t Below(uint64_t n) {
    const uint64_t limit = UINT64_MAX - UINT64_MAX % n;
    uint64_t x;
    do x = Next(); while (x >= limit);
    return x % n;
  }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

using Edge = std::pair<uint32_t, uint32_t>;  // always first < second

struct GeneratedGraph {
  uint32_t num_nodes = 0;
  std::vector<Edge> edges;  // sorted, no duplicates, no self loops
  // Road graphs only: grid coordinates of each node.
  std::vector<uint32_t> x, y;
  // Social graphs only: 1 for nodes attached as pendant leaves, 0 for the
  // nodes of the BA core.
  std::vector<uint8_t> is_leaf;
};

// Barabási–Albert core of `num_nodes * (1 - leaf_share)` nodes with
// `edges_per_node` preferential edges per arriving node, plus pendant
// leaves attached preferentially to core nodes. Node ids are shuffled so
// that hubs do not sit at low ids.
GeneratedGraph SocialGraph(uint32_t num_nodes, uint32_t edges_per_node,
                           double leaf_share, uint64_t seed);

// A `width` x `height` grid whose edges survive independently with
// probability `keep`; the largest connected component, relabelled in
// row-major order.
GeneratedGraph RoadGraph(uint32_t width, uint32_t height, double keep,
                         uint64_t seed);

// SNAP edge list: a comment header and one "u\tv" line per edge.
void WriteEdgeList(const std::string& path, const std::vector<Edge>& edges);
// Reads a file written by WriteEdgeList (the benchmark's own parser, kept
// apart from the library's).
std::vector<Edge> ReadEdgeList(const std::string& path);

// The parameters of one workload. Only the graph sizes differ between the
// measured inputs and the small graph of the Brandes check.
struct WorkloadSpec {
  std::string name;
  bool road = false;
  // Graph.
  uint32_t nodes = 0;             // social
  uint32_t edges_per_node = 0;    // social
  double leaf_share = 0.0;        // social
  uint32_t width = 0, height = 0; // road
  double keep = 0.0;              // road
  // Queries.
  double epsilon = 0.0;
  double delta = 0.01;
  uint32_t targets = 0;         // social: uniform targets per query
  uint32_t region_side = 0;     // road: rectangle side, in grid cells
  uint32_t query_threads = 1;   // the request's "threads" field
  uint32_t clients = 1;         // closed-loop client threads
  // Road: distinct region and bc-full queries per round, and how often each
  // distinct query is sent within its round.
  uint32_t regions_per_round = 0;
  uint32_t full_per_round = 0;
  uint32_t repeats = 1;
  bool mutating = false;
  // Edges inserted, then deleted, by the update tail.
  uint32_t tail_inserts = 0;
  uint32_t rounds = 0;  // rounds written to the request file
  // Rounds every run sends, however long they take: enough for at least
  // 100 computed queries, so query_p90_ms always has ten beyond it.
  uint32_t min_rounds = 0;
};

// Returns false for an unknown workload name.
bool LookupWorkload(const std::string& name, WorkloadSpec* spec);
// The spec of the small graph the Brandes check runs on.
WorkloadSpec CheckSpec(const WorkloadSpec& spec);

GeneratedGraph MakeGraph(const WorkloadSpec& spec, uint64_t seed);

// Lines per round of the measured stream. A run sends whole rounds only.
uint32_t RoundLength(const WorkloadSpec& spec);

// The measured stream: `spec.rounds` rounds of the workload's request mix.
std::vector<std::string> MakeStream(const WorkloadSpec& spec,
                                    const GeneratedGraph& g, uint64_t seed);
// Distinct queries the harness warms the session with before timing.
std::vector<std::string> MakeWarmup(const WorkloadSpec& spec,
                                    const GeneratedGraph& g, uint64_t seed);
// The fixed update tail run after the stream on the read-only workloads:
// `tail_inserts` inserts of absent edges, then their deletes in the same
// order, restoring the original edge set.
std::vector<std::string> MakeUpdateTail(const WorkloadSpec& spec,
                                        const GeneratedGraph& g,
                                        uint64_t seed);
// Queries for the correctness checks (Brandes on the small graph; the
// final-epoch comparison of the mutating workload).
std::vector<std::string> MakeCheckQueries(const WorkloadSpec& spec,
                                          const GeneratedGraph& g,
                                          uint64_t seed, uint32_t count);

void WriteLines(const std::string& path, const std::vector<std::string>& lines);
std::vector<std::string> ReadLines(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_GEN_H_
