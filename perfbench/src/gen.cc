#include "gen.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <unordered_set>

namespace perfbench {
namespace {

uint64_t EdgeKey(uint32_t u, uint32_t v) {
  if (u > v) std::swap(u, v);
  return (static_cast<uint64_t>(u) << 32) | v;
}

void SortUnique(std::vector<Edge>* edges) {
  for (Edge& e : *edges) {
    if (e.first > e.second) std::swap(e.first, e.second);
  }
  std::sort(edges->begin(), edges->end());
  edges->erase(std::unique(edges->begin(), edges->end()), edges->end());
}

// Distinct seeds for the sub-streams of one run, so that e.g. the warm-up
// queries never share a memo key with the measured ones.
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  Rng r(seed * 0x100000001b3ull + stream);
  return r.Next();
}

std::string TargetsJson(const std::vector<uint32_t>& targets) {
  std::string out = "[";
  for (size_t i = 0; i < targets.size(); ++i) {
    if (i) out += ',';
    out += std::to_string(targets[i]);
  }
  return out + "]";
}

std::string QueryLine(const std::string& id, const char* estimator,
                      const WorkloadSpec& spec, uint64_t query_seed,
                      const std::vector<uint32_t>& targets) {
  char head[256];
  std::snprintf(head, sizeof(head),
                "{\"id\":\"%s\",\"estimator\":\"%s\",\"epsilon\":%g,"
                "\"delta\":%g,\"seed\":%llu,\"threads\":%u,\"targets\":",
                id.c_str(), estimator, spec.epsilon, spec.delta,
                static_cast<unsigned long long>(query_seed),
                spec.query_threads);
  return head + TargetsJson(targets) + "}";
}

std::string UpdateLine(const std::string& id, bool insert, uint32_t u,
                       uint32_t v) {
  return "{\"id\":\"" + id + "\",\"op\":\"update\",\"action\":\"" +
         (insert ? "insert" : "delete") + "\",\"edge\":[" +
         std::to_string(u) + "," + std::to_string(v) + "]}";
}

// `count` distinct nodes drawn uniformly, sorted.
std::vector<uint32_t> UniformTargets(Rng* rng, uint32_t n, uint32_t count) {
  count = std::min(count, n);
  std::unordered_set<uint32_t> seen;
  std::vector<uint32_t> out;
  while (out.size() < count) {
    const uint32_t v = static_cast<uint32_t>(rng->Below(n));
    if (seen.insert(v).second) out.push_back(v);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// The nodes inside a random side x side rectangle of the grid, redrawn
// until it holds at least a quarter of its cells.
std::vector<uint32_t> RegionTargets(Rng* rng, const GeneratedGraph& g,
                                    const WorkloadSpec& spec) {
  const uint32_t side = spec.region_side;
  for (;;) {
    const uint32_t x0 = static_cast<uint32_t>(rng->Below(spec.width - side + 1));
    const uint32_t y0 = static_cast<uint32_t>(rng->Below(spec.height - side + 1));
    std::vector<uint32_t> out;
    for (uint32_t v = 0; v < g.num_nodes; ++v) {
      if (g.x[v] >= x0 && g.x[v] < x0 + side && g.y[v] >= y0 &&
          g.y[v] < y0 + side) {
        out.push_back(v);
      }
    }
    if (out.size() * 4 >= static_cast<size_t>(side) * side) return out;
  }
}

uint64_t QuerySeed(Rng* rng) { return rng->Next() >> 20; }

std::string MakeQuery(Rng* rng, const GeneratedGraph& g,
                      const WorkloadSpec& spec, const std::string& id,
                      bool full) {
  if (spec.road) {
    std::vector<uint32_t> targets = RegionTargets(rng, g, spec);
    return QueryLine(id, full ? "bc-full" : "bc", spec, QuerySeed(rng),
                     targets);
  }
  std::vector<uint32_t> targets = UniformTargets(rng, g.num_nodes, spec.targets);
  return QueryLine(id, "bc", spec, QuerySeed(rng), targets);
}

// Tracks the current edge set so that inserts are always of absent edges
// and deletes always of present ones.
class EdgeSet {
 public:
  explicit EdgeSet(const GeneratedGraph& g) {
    for (const Edge& e : g.edges) keys_.insert(EdgeKey(e.first, e.second));
  }
  bool Has(uint32_t u, uint32_t v) const {
    return keys_.count(EdgeKey(u, v)) != 0;
  }
  void Insert(uint32_t u, uint32_t v) { keys_.insert(EdgeKey(u, v)); }
  void Erase(uint32_t u, uint32_t v) { keys_.erase(EdgeKey(u, v)); }

 private:
  std::unordered_set<uint64_t> keys_;
};

// An absent edge between two nodes accepted by `pick`.
template <class Pick>
Edge AbsentEdge(Rng* rng, const EdgeSet& set, Pick pick) {
  for (;;) {
    const uint32_t u = pick(rng);
    const uint32_t v = pick(rng);
    if (u != v && !set.Has(u, v)) return {std::min(u, v), std::max(u, v)};
  }
}

}  // namespace

GeneratedGraph SocialGraph(uint32_t num_nodes, uint32_t edges_per_node,
                           double leaf_share, uint64_t seed) {
  Rng rng(seed);
  const uint32_t m = edges_per_node;
  const uint32_t core =
      std::max(m + 1, static_cast<uint32_t>(num_nodes * (1.0 - leaf_share)));
  GeneratedGraph g;
  g.num_nodes = num_nodes;
  g.edges.reserve(static_cast<size_t>(core) * m + (num_nodes - core));
  // Every edge endpoint, so that a uniform pick is a degree-weighted pick.
  std::vector<uint32_t> ends;
  ends.reserve(2 * (static_cast<size_t>(core) * m + num_nodes));
  for (uint32_t u = 0; u <= m; ++u) {
    for (uint32_t v = u + 1; v <= m; ++v) {
      g.edges.push_back({u, v});
      ends.push_back(u);
      ends.push_back(v);
    }
  }
  std::vector<uint32_t> picked;
  for (uint32_t v = m + 1; v < core; ++v) {
    picked.clear();
    while (picked.size() < m) {
      const uint32_t u = ends[rng.Below(ends.size())];
      if (std::find(picked.begin(), picked.end(), u) == picked.end()) {
        picked.push_back(u);
      }
    }
    for (uint32_t u : picked) {
      g.edges.push_back({u, v});
      ends.push_back(u);
      ends.push_back(v);
    }
  }
  // Leaves attach to core nodes by degree; their own endpoints are not
  // added to `ends`, so leaves never receive a second edge.
  const size_t core_ends = ends.size();
  for (uint32_t v = core; v < num_nodes; ++v) {
    g.edges.push_back({ends[rng.Below(core_ends)], v});
  }
  // Shuffle ids so that hubs and leaves are spread over the id space.
  std::vector<uint32_t> perm(num_nodes);
  std::iota(perm.begin(), perm.end(), 0u);
  for (uint32_t i = num_nodes - 1; i > 0; --i) {
    std::swap(perm[i], perm[rng.Below(i + 1)]);
  }
  g.is_leaf.assign(num_nodes, 0);
  for (uint32_t v = core; v < num_nodes; ++v) g.is_leaf[perm[v]] = 1;
  for (Edge& e : g.edges) e = {perm[e.first], perm[e.second]};
  SortUnique(&g.edges);
  return g;
}

GeneratedGraph RoadGraph(uint32_t width, uint32_t height, double keep,
                         uint64_t seed) {
  Rng rng(seed);
  const uint32_t cells = width * height;
  std::vector<Edge> raw;
  for (uint32_t r = 0; r < height; ++r) {
    for (uint32_t c = 0; c < width; ++c) {
      const uint32_t v = r * width + c;
      if (c + 1 < width && rng.Unit() < keep) raw.push_back({v, v + 1});
      if (r + 1 < height && rng.Unit() < keep) raw.push_back({v, v + width});
    }
  }
  // Union-find to keep the largest component only.
  std::vector<uint32_t> parent(cells);
  std::iota(parent.begin(), parent.end(), 0u);
  auto find = [&](uint32_t v) {
    while (parent[v] != v) v = parent[v] = parent[parent[v]];
    return v;
  };
  for (const Edge& e : raw) parent[find(e.first)] = find(e.second);
  std::vector<uint32_t> size(cells, 0);
  for (uint32_t v = 0; v < cells; ++v) ++size[find(v)];
  const uint32_t giant = static_cast<uint32_t>(
      std::max_element(size.begin(), size.end()) - size.begin());
  std::vector<uint32_t> id(cells, UINT32_MAX);
  GeneratedGraph g;
  for (uint32_t v = 0; v < cells; ++v) {
    if (find(v) != giant) continue;
    id[v] = g.num_nodes++;
    g.x.push_back(v % width);
    g.y.push_back(v / width);
  }
  for (const Edge& e : raw) {
    if (id[e.first] != UINT32_MAX) g.edges.push_back({id[e.first], id[e.second]});
  }
  SortUnique(&g.edges);
  return g;
}

void WriteEdgeList(const std::string& path, const std::vector<Edge>& edges) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "# perfbench generated graph\n# edges: %zu\n", edges.size());
  for (const Edge& e : edges) std::fprintf(f, "%u\t%u\n", e.first, e.second);
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

std::vector<Edge> ReadEdgeList(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) throw std::runtime_error("cannot read " + path);
  std::vector<Edge> edges;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (line[0] == '#') continue;
    unsigned u, v;
    if (std::sscanf(line, "%u %u", &u, &v) != 2) {
      std::fclose(f);
      throw std::runtime_error("bad edge line in " + path);
    }
    edges.push_back({u, v});
  }
  std::fclose(f);
  SortUnique(&edges);
  return edges;
}

bool LookupWorkload(const std::string& name, WorkloadSpec* spec) {
  WorkloadSpec s;
  s.name = name;
  if (name == "social-subset") {
    s.nodes = 200000;
    s.edges_per_node = 4;
    s.leaf_share = 0.3;
    s.epsilon = 0.02;
    s.targets = 100;
    s.query_threads = 2;
    s.clients = 1;
    s.tail_inserts = 8;
    s.rounds = 600;
    s.min_rounds = 100;  // one computed query per round
  } else if (name == "social-mutating") {
    s.nodes = 100000;
    s.edges_per_node = 4;
    s.leaf_share = 0.3;
    s.epsilon = 0.03;
    s.targets = 100;
    s.query_threads = 1;
    s.clients = 1;
    s.mutating = true;
    s.tail_inserts = 3;  // used only by the traced run's probes
    s.rounds = 100;
    s.min_rounds = 9;  // twelve computed queries per round
  } else if (name == "road-region") {
    s.road = true;
    s.width = 110;
    s.height = 110;
    s.keep = 0.6;
    s.epsilon = 0.05;
    s.region_side = 10;
    s.query_threads = 1;
    s.clients = 3;
    s.regions_per_round = 3;
    s.full_per_round = 1;
    s.repeats = 3;
    s.tail_inserts = 30;
    s.rounds = 150;
    s.min_rounds = 25;  // four computed queries per round
  } else {
    return false;
  }
  *spec = s;
  return true;
}

WorkloadSpec CheckSpec(const WorkloadSpec& spec) {
  WorkloadSpec s = spec;
  if (s.road) {
    s.width = 40;
    s.height = 40;
  } else {
    s.nodes = 2000;
  }
  return s;
}

GeneratedGraph MakeGraph(const WorkloadSpec& spec, uint64_t seed) {
  return spec.road ? RoadGraph(spec.width, spec.height, spec.keep, seed)
                   : SocialGraph(spec.nodes, spec.edges_per_node,
                                 spec.leaf_share, seed);
}

uint32_t RoundLength(const WorkloadSpec& spec) {
  if (spec.mutating) return 18;
  if (spec.road) return (spec.regions_per_round + spec.full_per_round) * spec.repeats;
  return 1;
}

std::vector<std::string> MakeStream(const WorkloadSpec& spec,
                                    const GeneratedGraph& g, uint64_t seed) {
  Rng rng(SubSeed(seed, 1));
  std::vector<std::string> lines;
  uint64_t next_id = 0;
  auto id = [&](char kind) { return std::string(1, kind) + std::to_string(next_id++); };
  if (spec.mutating) {
    // Per round: an insert inside the BA core (its giant block), an insert
    // joining a pendant leaf's bridge block to the core, and the delete of
    // the first insert. Each update is followed by four computed queries,
    // one of them repeating a query of the previous epoch (recomputed after
    // exact invalidation), and one memo-served repeat within the epoch. So
    // a quarter of the computed queries are the first after an update.
    EdgeSet set(g);
    std::vector<uint32_t> core, leaves;
    for (uint32_t v = 0; v < g.num_nodes; ++v) {
      (g.is_leaf[v] ? leaves : core).push_back(v);
    }
    std::vector<uint8_t> leaf_used(g.num_nodes, 0);
    auto pick_core = [&](Rng* r) { return core[r->Below(core.size())]; };
    std::string carried = MakeQuery(&rng, g, spec, id('q'), false);
    for (uint32_t round = 0; round < spec.rounds; ++round) {
      const Edge giant = AbsentEdge(&rng, set, pick_core);
      uint32_t leaf;
      do leaf = leaves[rng.Below(leaves.size())]; while (leaf_used[leaf]);
      leaf_used[leaf] = 1;
      uint32_t hub;
      do hub = pick_core(&rng); while (set.Has(leaf, hub));
      const Edge updates[3] = {giant, {leaf, hub}, giant};
      for (int step = 0; step < 3; ++step) {
        const Edge& e = updates[step];
        const bool insert = step < 2;
        lines.push_back(UpdateLine(id('u'), insert, e.first, e.second));
        if (insert) {
          set.Insert(e.first, e.second);
        } else {
          set.Erase(e.first, e.second);
        }
        const std::string first = MakeQuery(&rng, g, spec, id('q'), false);
        lines.push_back(first);
        lines.push_back(carried);
        lines.push_back(MakeQuery(&rng, g, spec, id('q'), false));
        lines.push_back(MakeQuery(&rng, g, spec, id('q'), false));
        lines.push_back(first);
        carried = first;
      }
    }
  } else if (spec.road) {
    // Per round: distinct region queries and whole-network bc-full queries,
    // each sent `repeats` times, shuffled within the round.
    std::vector<std::string> round_lines;
    for (uint32_t round = 0; round < spec.rounds; ++round) {
      round_lines.clear();
      for (uint32_t i = 0; i < spec.regions_per_round + spec.full_per_round; ++i) {
        const std::string q =
            MakeQuery(&rng, g, spec, id('q'), i >= spec.regions_per_round);
        for (uint32_t r = 0; r < spec.repeats; ++r) round_lines.push_back(q);
      }
      for (size_t i = round_lines.size() - 1; i > 0; --i) {
        std::swap(round_lines[i], round_lines[rng.Below(i + 1)]);
      }
      lines.insert(lines.end(), round_lines.begin(), round_lines.end());
    }
  } else {
    for (uint32_t round = 0; round < spec.rounds; ++round) {
      lines.push_back(MakeQuery(&rng, g, spec, id('q'), false));
    }
  }
  return lines;
}

std::vector<std::string> MakeWarmup(const WorkloadSpec& spec,
                                    const GeneratedGraph& g, uint64_t seed) {
  Rng rng(SubSeed(seed, 2));
  std::vector<std::string> lines;
  for (int i = 0; i < 3; ++i) {
    lines.push_back(MakeQuery(&rng, g, spec, "w" + std::to_string(i),
                              spec.road && i == 2));
  }
  return lines;
}

std::vector<std::string> MakeUpdateTail(const WorkloadSpec& spec,
                                        const GeneratedGraph& g,
                                        uint64_t seed) {
  Rng rng(SubSeed(seed, 3));
  EdgeSet set(g);
  auto pick_any = [&](Rng* r) { return static_cast<uint32_t>(r->Below(g.num_nodes)); };
  std::vector<Edge> inserted;
  std::vector<std::string> lines;
  for (uint32_t i = 0; i < spec.tail_inserts; ++i) {
    const Edge e = AbsentEdge(&rng, set, pick_any);
    set.Insert(e.first, e.second);
    inserted.push_back(e);
    lines.push_back(UpdateLine("t" + std::to_string(i), true, e.first, e.second));
  }
  for (const Edge& e : inserted) {
    lines.push_back(UpdateLine("t" + std::to_string(lines.size()), false,
                               e.first, e.second));
  }
  return lines;
}

std::vector<std::string> MakeCheckQueries(const WorkloadSpec& spec,
                                          const GeneratedGraph& g,
                                          uint64_t seed, uint32_t count) {
  Rng rng(SubSeed(seed, 4));
  std::vector<std::string> lines;
  for (uint32_t i = 0; i < count; ++i) {
    // Road checks include bc-full queries in the stream's proportion.
    const bool full = spec.road && spec.full_per_round != 0 &&
                      i % (spec.regions_per_round + spec.full_per_round) ==
                          spec.regions_per_round;
    lines.push_back(MakeQuery(&rng, g, spec, "c" + std::to_string(i), full));
  }
  return lines;
}

void WriteLines(const std::string& path, const std::vector<std::string>& lines) {
  std::ofstream out(path);
  for (const std::string& l : lines) out << l << '\n';
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

}  // namespace perfbench
