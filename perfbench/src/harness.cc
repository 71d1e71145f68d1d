// perfbench_harness — the program that runs one workload of the benchmark.
//
//   perfbench_harness gen --workload W --seed S --dir D
//       Writes the workload's inputs into D: graph.txt (SNAP edge list),
//       stream.ndjson (the measured requests), warmup.ndjson, tail.ndjson
//       (updates), check_graph.txt + check.ndjson (Brandes check) and, for
//       the mutating workload, final.ndjson.
//
//   perfbench_harness run --workload W --seed S --dir D --seconds T
//                         --trace 0|1 --convert PATH [--trace-out FILE]
//       Set-up (graph_convert, then QuerySession::Open), warm-up, the
//       closed-loop stream through BatchScheduler::Run for T seconds of
//       whole rounds, the update tail, then the correctness checks. Prints
//       one JSON object as its last stdout line: the end-to-end metrics
//       with --trace 0, the per-layer metrics with --trace 1.
//
// Requests are always built by ParseQueryRequest from NDJSON lines.

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bc/exact_subspace.h"
#include "bc/saphyra_bc.h"
#include "bicomp/biconnected.h"
#include "bicomp/component_view.h"
#include "bicomp/isp.h"
#include "checks.h"
#include "gen.h"
#include "graph/binary_io.h"
#include "graph/connectivity.h"
#include "graph/io.h"
#include "reference.h"
#include "service/query.h"
#include "service/scheduler.h"
#include "service/session.h"
#include "trace.h"

extern char** environ;

namespace perfbench {
namespace {

using saphyra::BatchScheduler;
using saphyra::QueryRequest;
using saphyra::QueryResult;
using saphyra::QuerySession;
using saphyra::RequestOp;
using saphyra::ServeMode;
using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return NAN;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  return v[rank == 0 ? 0 : rank - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return NAN;
  std::sort(v.begin(), v.end());
  return 0.5 * (v[(v.size() - 1) / 2] + v[v.size() / 2]);
}

// Parses a line the generator wrote; a failure here is a benchmark bug.
QueryRequest MustParse(const std::string& line) {
  QueryRequest req;
  saphyra::Status st = saphyra::ParseQueryRequest(line, &req);
  if (!st.ok()) throw std::runtime_error("unparsable request: " + line);
  return req;
}

Answer ToAnswer(const QueryResult& r) {
  return {r.nodes, r.estimates, r.samples_used};
}

// Runs graph_convert on `input`, writing `output`; returns its wall time.
double Convert(const std::string& tool, const std::string& input,
               const std::string& output) {
  std::vector<std::string> args = {tool, "--input", input, "--output", output,
                                   "--no-compact-ids"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  // The tool's own output goes to stderr: stdout carries the result line.
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, 2, 1);
  const auto t0 = Clock::now();
  pid_t pid;
  const int rc = posix_spawn(&pid, tool.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) throw std::runtime_error("cannot start " + tool);
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error("graph_convert failed on " + input);
  }
  return Seconds(t0, Clock::now());
}

std::unique_ptr<QuerySession> Open(const std::string& sgr) {
  saphyra::SessionOptions opts;
  opts.eager_index = true;
  std::unique_ptr<QuerySession> session;
  saphyra::Status st = QuerySession::Open(sgr, opts, &session);
  if (!st.ok()) throw std::runtime_error("cannot open " + sgr + ": " + st.ToString());
  return session;
}

saphyra::SchedulerOptions SchedOptions(uint32_t clients) {
  saphyra::SchedulerOptions opts;
  opts.max_concurrent = clients;
  opts.allow_updates = true;
  return opts;
}

// One request of a run as the client saw it.
struct Op {
  size_t line = 0;  // index into the line list it came from
  bool update = false;
  double latency_s = 0.0;
  QueryResult result;
};

// A line through the wire path: parse, BatchScheduler::Run, serialize.
// Timed from the client side; traced when `tracer` is enabled.
Op Call(BatchScheduler* sched, const std::string& line, size_t index,
        Tracer* tracer) {
  Op op;
  op.line = index;
  const auto t0 = Clock::now();
  Span request(tracer, "client.request", 0, static_cast<int64_t>(index));
  QueryRequest req;
  {
    Span s(tracer, "service.parse", request.id(), static_cast<int64_t>(index));
    saphyra::Status st = saphyra::ParseQueryRequest(line, &req);
    if (!st.ok()) throw std::runtime_error("unparsable request: " + line);
  }
  op.update = req.op == RequestOp::kUpdate;
  {
    Span s(tracer, op.update ? "service.run_update" : "service.run",
           request.id(), static_cast<int64_t>(index));
    op.result = sched->Run(req);
  }
  {
    Span s(tracer, "service.serialize", request.id(),
           static_cast<int64_t>(index));
    const std::string out = saphyra::SerializeQueryResult(op.result);
    if (out.empty()) throw std::runtime_error("empty reply");
  }
  request.End();
  op.latency_s = Seconds(t0, Clock::now());
  return op;
}

struct StreamOutcome {
  std::vector<Op> ops;  // in stream order
  double wall_s = 0.0;
  bool exhausted = false;
};

// Closed loop: `clients` threads each send their next line when the
// previous one is answered. Issuing stops at the first round boundary
// after `seconds` that follows at least `min_rounds` rounds, so a run
// always holds whole rounds.
StreamOutcome RunStream(BatchScheduler* sched,
                        const std::vector<std::string>& lines,
                        uint32_t round_len, uint32_t min_rounds,
                        uint32_t clients, double seconds, Tracer* tracer) {
  std::mutex mu;
  size_t next = 0, limit = lines.size();
  std::vector<Op> ops(lines.size());
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  auto last_done = start;
  auto client = [&] {
    for (;;) {
      size_t idx;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (next >= limit) return;
        if (next % round_len == 0 && next >= size_t{min_rounds} * round_len &&
            Clock::now() >= deadline) {
          limit = next;
          return;
        }
        idx = next++;
      }
      Op op = Call(sched, lines[idx], idx, tracer);
      const auto done = Clock::now();
      std::lock_guard<std::mutex> lock(mu);
      ops[idx] = std::move(op);
      last_done = std::max(last_done, done);
    }
  };
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < clients; ++c) threads.emplace_back(client);
  for (std::thread& t : threads) t.join();
  StreamOutcome out;
  out.exhausted = limit == lines.size();
  ops.resize(limit);
  out.ops = std::move(ops);
  out.wall_s = Seconds(start, last_done);
  return out;
}

struct Args {
  std::string cmd, workload, dir, convert, trace_out;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

std::string Path(const Args& a, const char* name) { return a.dir + "/" + name; }

void Gen(const Args& a, const WorkloadSpec& spec) {
  const GeneratedGraph g = MakeGraph(spec, a.seed);
  WriteEdgeList(Path(a, "graph.txt"), g.edges);
  WriteLines(Path(a, "stream.ndjson"), MakeStream(spec, g, a.seed));
  WriteLines(Path(a, "warmup.ndjson"), MakeWarmup(spec, g, a.seed));
  WriteLines(Path(a, "tail.ndjson"), MakeUpdateTail(spec, g, a.seed));
  if (spec.mutating) {
    WriteLines(Path(a, "final.ndjson"), MakeCheckQueries(spec, g, a.seed, 3));
  }
  const WorkloadSpec small = CheckSpec(spec);
  const GeneratedGraph cg = MakeGraph(small, a.seed);
  WriteEdgeList(Path(a, "check_graph.txt"), cg.edges);
  WriteLines(Path(a, "check.ndjson"), MakeCheckQueries(small, cg, a.seed, 21));
}

// Collects check failures; the run is correct when there are none.
struct Verdicts {
  std::vector<std::string> failures;
  void Require(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

uint32_t NumNodes(const std::vector<Edge>& edges) {
  uint32_t n = 0;
  for (const Edge& e : edges) n = std::max(n, e.second + 1);
  return n;
}

// Every update advanced the epoch by one; answers to the same line in the
// same epoch are bitwise equal whichever way they were served; targets of
// degree one (exact betweenness 0) are estimated within epsilon while the
// graph is unmutated.
void CheckStream(const std::vector<std::string>& lines,
                 const std::vector<Op>& ops, const std::vector<Edge>& edges,
                 double epsilon, uint64_t* epoch, Verdicts* v) {
  std::vector<uint32_t> degree(NumNodes(edges), 0);
  for (const Edge& e : edges) {
    ++degree[e.first];
    ++degree[e.second];
  }
  std::map<std::pair<std::string, uint64_t>, const QueryResult*> first;
  for (const Op& op : ops) {
    if (!op.result.status.ok()) continue;  // counted as failed
    if (op.update) {
      v->Require(op.result.epoch == *epoch + 1,
                 "update " + op.result.id + " did not advance the epoch by one");
      *epoch = op.result.epoch;
      continue;
    }
    auto [it, inserted] =
        first.emplace(std::make_pair(lines[op.line], *epoch), &op.result);
    std::string why;
    if (!inserted) {
      v->Require(SameBits(ToAnswer(*it->second), ToAnswer(op.result), &why),
                 "repeat of " + op.result.id + " differs: " + why);
    }
    if (*epoch == 0) {
      for (size_t i = 0; i < op.result.nodes.size(); ++i) {
        if (degree[op.result.nodes[i]] == 1) {
          v->Require(std::fabs(op.result.estimates[i]) < epsilon,
                     "leaf estimate off in " + op.result.id);
        }
      }
    }
  }
}

// Brandes check on the small graph of the same generator and seed.
void CheckAgainstBrandes(const Args& a, const WorkloadSpec& spec,
                         Verdicts* v) {
  const std::vector<Edge> edges = ReadEdgeList(Path(a, "check_graph.txt"));
  const std::string sgr = Path(a, "check_graph.sgr");
  Convert(a.convert, Path(a, "check_graph.txt"), sgr);
  auto session = Open(sgr);
  std::string why;
  v->Require(SameEdgeSet(session->graph(), NumNodes(edges), edges, &why),
             "converted check graph: " + why);
  BatchScheduler sched(session.get(), SchedOptions(1));
  std::vector<Answer> answers;
  for (const std::string& line : ReadLines(Path(a, "check.ndjson"))) {
    QueryResult r = sched.Run(MustParse(line));
    v->Require(r.status.ok(), "check query failed: " + r.status.ToString());
    answers.push_back(ToAnswer(r));
  }
  const std::vector<double> exact = BrandesReference(NumNodes(edges), edges);
  const ErrorBoundVerdict verdict =
      CheckErrorBound(answers, exact, spec.epsilon, spec.delta);
  std::fprintf(stderr,
               "brandes check: %u queries, %u with an error >= eps (allowed "
               "%u), max error %.3g (eps %g)\n",
               verdict.queries, verdict.failing, verdict.allowed,
               verdict.max_error, spec.epsilon);
  v->Require(verdict.ok(), "too many queries beyond epsilon vs Brandes");
}

// The mutated session's answers equal, bit for bit, those of a fresh
// session on the benchmark's own mutated edge list, converted anew.
void CheckMutated(const Args& a, const std::vector<std::string>& lines,
                  const std::vector<Op>& ops, std::vector<Edge> edges,
                  QuerySession* session, BatchScheduler* sched, Verdicts* v) {
  std::set<Edge> set(edges.begin(), edges.end());
  for (const Op& op : ops) {
    if (!op.update || !op.result.status.ok()) continue;
    const QueryRequest req = MustParse(lines[op.line]);
    const Edge e{std::min(req.edge_u, req.edge_v), std::max(req.edge_u, req.edge_v)};
    if (req.action == saphyra::EdgeMutationKind::kInsert) {
      set.insert(e);
    } else {
      set.erase(e);
    }
  }
  edges.assign(set.begin(), set.end());
  const uint32_t n = session->graph().num_nodes();
  std::string why;
  v->Require(SameEdgeSet(session->graph(), n, edges, &why),
             "mutated session graph: " + why);
  WriteEdgeList(Path(a, "mutated.txt"), edges);
  Convert(a.convert, Path(a, "mutated.txt"), Path(a, "mutated.sgr"));
  auto fresh = Open(Path(a, "mutated.sgr"));
  BatchScheduler fresh_sched(fresh.get(), SchedOptions(1));
  size_t compared = 0;
  for (const std::string& line : ReadLines(Path(a, "final.ndjson"))) {
    const QueryRequest req = MustParse(line);
    const QueryResult mutated = sched->Run(req);
    const QueryResult anew = fresh_sched.Run(req);
    v->Require(mutated.status.ok() && anew.status.ok(), "final query failed");
    v->Require(SameBits(ToAnswer(mutated), ToAnswer(anew), &why),
               "mutated session differs from re-converted graph: " + why);
    ++compared;
  }
  std::fprintf(stderr, "mutation check: %zu final-epoch answers compared\n",
               compared);
}

std::string Metric(const char* name, double value, const char* unit) {
  if (!std::isfinite(value)) {
    throw std::runtime_error(std::string("no measurement for ") + name);
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf), "\"%s\":{\"value\":%.10g,\"unit\":\"%s\"}",
                name, value, unit);
  return buf;
}

std::string JoinMetrics(const std::vector<std::string>& parts) {
  std::string out = "{";
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i) out += ',';
    out += parts[i];
  }
  return out + "}";
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;
}

// The distinct query lines of the stream that the per-query probes use:
// the first few of each estimator.
std::vector<std::string> ProbeQueries(const WorkloadSpec& spec,
                                      const std::vector<std::string>& lines) {
  std::vector<std::string> out;
  std::set<std::string> seen;
  uint32_t bc = 0, full = 0;
  const uint32_t want_full = spec.road ? 2 : 0, want_bc = spec.road ? 4 : 5;
  for (const std::string& line : lines) {
    if (bc >= want_bc && full >= want_full) break;
    const QueryRequest req = MustParse(line);
    if (req.op == RequestOp::kUpdate || !seen.insert(line).second) continue;
    const bool is_full = req.estimator == saphyra::EstimatorKind::kBcFull;
    uint32_t& count = is_full ? full : bc;
    if (count >= (is_full ? want_full : want_bc)) continue;
    ++count;
    out.push_back(line);
  }
  return out;
}

template <class F>
void Repeat(Tracer* tracer, const char* name, int times, F f) {
  for (int i = 0; i < times; ++i) {
    Span s(tracer, name);
    f();
  }
}

// Per-layer probes: each layer's public entry point, timed by spans, on
// the workload's own graph and queries.
std::vector<std::string> LayerMetrics(const Args& a, const WorkloadSpec& spec,
                                      const std::vector<std::string>& lines,
                                      const std::vector<std::string>& tail,
                                      QuerySession* session,
                                      BatchScheduler* sched, Tracer* tr) {
  using namespace saphyra;
  const std::string sgr = Path(a, "graph.sgr");
  std::vector<std::string> m;
  auto med = [&](const char* name) { return Median(tr->Durations(name)); };

  Repeat(tr, "graph.LoadSnapEdgeList", 3, [&] {
    Graph g;
    if (!LoadSnapEdgeList(Path(a, "graph.txt"), &g, false).ok()) {
      throw std::runtime_error("LoadSnapEdgeList failed");
    }
  });
  Repeat(tr, "graph.LoadGraphAuto", 5, [&] {
    GraphCache cache;
    if (!LoadGraphAuto(sgr, LoadGraphOptions(), &cache).ok()) {
      throw std::runtime_error("LoadGraphAuto failed");
    }
  });
  GraphCache base;
  LoadGraphAuto(sgr, LoadGraphOptions(), &base);
  const Graph& g = base.graph;
  BiconnectedComponents bcc;
  Repeat(tr, "bicomp.ComputeBiconnectedComponents", 3,
         [&] { bcc = ComputeBiconnectedComponents(g); });
  Repeat(tr, "bicomp.ConnectedComponents", 3,
         [&] { (void)ConnectedComponents(g); });
  Repeat(tr, "bicomp.ComponentViews", 3, [&] { (void)ComponentViews(g, bcc); });
  Repeat(tr, "bicomp.IspIndex.build", 3, [&] { IspIndex isp(g); });
  for (int i = 0; i < 3; ++i) {
    GraphCache cache;
    LoadGraphAuto(sgr, LoadGraphOptions(), &cache);
    Graph graph = std::move(cache.graph);
    Span s(tr, "bicomp.IspIndex.adopt");
    IspIndex isp(graph, std::move(cache));
  }
  Repeat(tr, "service.QuerySession::Open", 3, [&] { Open(sgr); });

  m.push_back(Metric("graph.parse_s", med("graph.LoadSnapEdgeList"), "s"));
  m.push_back(Metric("graph.sgr_load_ms", 1e3 * med("graph.LoadGraphAuto"), "ms"));
  m.push_back(Metric("bicomp.bcc_s", med("bicomp.ComputeBiconnectedComponents"), "s"));
  m.push_back(Metric("bicomp.conn_s", med("bicomp.ConnectedComponents"), "s"));
  m.push_back(Metric("bicomp.views_s", med("bicomp.ComponentViews"), "s"));
  m.push_back(Metric("bicomp.isp_build_s", med("bicomp.IspIndex.build"), "s"));
  m.push_back(Metric("bicomp.isp_adopt_ms", 1e3 * med("bicomp.IspIndex.adopt"), "ms"));
  m.push_back(Metric("bicomp.components", bcc.num_components, "count"));
  m.push_back(Metric("service.open_ms", 1e3 * med("service.QuerySession::Open"), "ms"));

  // Per-query probes on the stream's first distinct queries.
  const std::vector<std::string> probe_lines = ProbeQueries(spec, lines);
  const IspIndex& isp = session->isp();
  std::vector<double> pairs, samples, vs_cap, sample_us, t2_extra, sched_extra;
  uint64_t accepted = 0, rejected = 0;
  for (const std::string& line : probe_lines) {
    const QueryRequest req = MustParse(line);
    const bool full = req.estimator == EstimatorKind::kBcFull;
    std::vector<NodeId> targets = req.targets;
    if (full) {
      targets.resize(isp.graph().num_nodes());
      for (NodeId v = 0; v < targets.size(); ++v) targets[v] = v;
    }
    double exact_s;
    {
      Span s(tr, "bc.exact");
      PersonalizedSpace space(isp, targets);
      pairs.push_back(ComputeExactSubspace(space).pairs_examined);
      s.End();
      exact_s = tr->Durations("bc.exact").back();
    }
    SaphyraBcOptions opts;
    opts.epsilon = req.epsilon;
    opts.delta = req.delta;
    opts.seed = req.seed;
    auto run = [&](uint32_t threads, const char* name) {
      opts.num_threads = threads;
      Span s(tr, name);
      SaphyraBcResult r = full ? RunSaphyraBcFull(isp, opts)
                               : RunSaphyraBc(isp, targets, opts);
      s.End();
      return r;
    };
    const SaphyraBcResult r1 = run(1, "bc.RunSaphyraBc.t1");
    run(2, "bc.RunSaphyraBc.t2");
    const double t1 = tr->Durations("bc.RunSaphyraBc.t1").back();
    const double t2 = tr->Durations("bc.RunSaphyraBc.t2").back();
    t2_extra.push_back(t2 - t1);
    samples.push_back(r1.samples_used);
    vs_cap.push_back(r1.max_samples ? double(r1.samples_used) / r1.max_samples : 0);
    if (r1.samples_used > 0) sample_us.push_back(1e6 * (t1 - exact_s) / r1.samples_used);
    accepted += r1.samples_used;
    rejected += r1.rejected_samples;

    {
      Span s(tr, "service.QuerySession::Run");
      session->Run(req);
    }
    BatchScheduler fresh(session, SchedOptions(1));
    {
      Span s(tr, "service.BatchScheduler::Run.computed");
      fresh.Run(req);
    }
    {
      Span s(tr, "service.BatchScheduler::Run.memo");
      fresh.Run(req);
    }
    sched_extra.push_back(
        tr->Durations("service.BatchScheduler::Run.computed").back() -
        tr->Durations("service.QuerySession::Run").back());
  }
  m.push_back(Metric("bc.exact_ms", 1e3 * med("bc.exact"), "ms"));
  m.push_back(Metric("bc.exact_pairs", Median(pairs), "count"));
  m.push_back(Metric("bc.query_ms", 1e3 * med("bc.RunSaphyraBc.t1"), "ms"));
  m.push_back(Metric("bc.sample_us", Median(sample_us), "us"));
  m.push_back(Metric("core.samples", Median(samples), "count"));
  m.push_back(Metric("core.samples_vs_cap", Median(vs_cap), "ratio"));
  m.push_back(Metric("core.accept_ratio",
                     accepted + rejected ? double(accepted) / (accepted + rejected) : 1.0,
                     "ratio"));
  m.push_back(Metric("core.threads2_extra_ms", 1e3 * Median(t2_extra), "ms"));
  m.push_back(Metric("service.parse_us", 1e6 * med("service.parse"), "us"));
  m.push_back(Metric("service.serialize_us", 1e6 * med("service.serialize"), "us"));
  m.push_back(Metric("service.scheduler_extra_ms", 1e3 * Median(sched_extra), "ms"));
  m.push_back(Metric("service.memo_hit_us", 1e6 * med("service.BatchScheduler::Run.memo"), "us"));
  const SchedulerStats st = sched->stats();
  m.push_back(Metric("service.computed", st.computed, "count"));
  m.push_back(Metric("service.memo_hits", st.memo_hits, "count"));
  m.push_back(Metric("service.dedup_hits", st.dedup_hits, "count"));
  m.push_back(Metric("service.update_ms", 1e3 * med("service.run_update"), "ms"));

  // The first query after an update pays the new epoch's index adoption;
  // the same query again in that epoch does not.
  const QueryRequest probe = MustParse(probe_lines.front());
  const size_t half = tail.size() / 2;  // inserts, then their deletes
  const size_t probes = std::min<size_t>(half, 3);
  std::vector<bool> inserted(probes, false);
  std::vector<double> post_extra;
  for (size_t i = 0; i < probes; ++i) {
    inserted[i] = sched->Run(MustParse(tail[i])).status.ok();
    if (!inserted[i]) continue;
    Span first(tr, "probe.first_after_update");
    session->Run(probe);
    first.End();
    Span second(tr, "probe.second_after_update");
    session->Run(probe);
    second.End();
    post_extra.push_back(tr->Durations("probe.first_after_update").back() -
                         tr->Durations("probe.second_after_update").back());
  }
  for (size_t i = 0; i < probes; ++i) {
    if (inserted[i]) sched->Run(MustParse(tail[half + i]));
  }
  m.push_back(Metric("service.post_update_extra_ms", 1e3 * Median(post_extra), "ms"));
  return m;
}

int Run(const Args& a, const WorkloadSpec& spec) {
  Tracer tracer(a.trace);
  Tracer* tr = &tracer;
  const std::vector<std::string> lines = ReadLines(Path(a, "stream.ndjson"));
  const std::vector<std::string> warmup = ReadLines(Path(a, "warmup.ndjson"));
  const std::vector<std::string> tail = ReadLines(Path(a, "tail.ndjson"));

  // Set-up: text edge list -> .sgr -> a session with its index built.
  const std::string sgr = Path(a, "graph.sgr");
  double setup_s;
  std::unique_ptr<QuerySession> session;
  {
    Span s(tr, "setup");
    {
      Span c(tr, "setup.graph_convert", s.id());
      setup_s = Convert(a.convert, Path(a, "graph.txt"), sgr);
    }
    const auto t0 = Clock::now();
    Span o(tr, "setup.QuerySession::Open", s.id());
    session = Open(sgr);
    setup_s += Seconds(t0, Clock::now());
  }

  // Warm-up on distinct queries, through a scheduler of its own so the
  // measured scheduler starts with an empty memo and zero counters.
  {
    BatchScheduler warm(session.get(), SchedOptions(spec.clients));
    for (const std::string& line : warmup) warm.Run(MustParse(line));
  }

  BatchScheduler sched(session.get(), SchedOptions(spec.clients));
  StreamOutcome stream = RunStream(&sched, lines, RoundLength(spec),
                                   spec.min_rounds, spec.clients, a.seconds, tr);
  if (stream.exhausted) {
    std::fprintf(stderr, "warning: the stream ran out before %g s\n", a.seconds);
  }
  // The read-only workloads measure update latency on a fixed tail.
  std::vector<Op> tail_ops;
  if (!spec.mutating) {
    for (size_t i = 0; i < tail.size(); ++i) {
      tail_ops.push_back(Call(&sched, tail[i], i, tr));
    }
  }
  const double rss_mb = PeakRssMb();

  std::vector<double> computed_ms, update_ms;
  uint64_t answered = 0, attempted = 0, failed = 0;
  for (const std::vector<Op>* ops : {&stream.ops, &tail_ops}) {
    for (const Op& op : *ops) {
      ++attempted;
      if (!op.result.status.ok()) {
        ++failed;
        continue;
      }
      if (op.update) {
        update_ms.push_back(1e3 * op.latency_s);
      } else if (ops == &stream.ops) {
        ++answered;
        if (op.result.mode == ServeMode::kComputed) {
          computed_ms.push_back(1e3 * op.latency_s);
        }
      }
    }
  }
  const double qps = answered / stream.wall_s;
  const std::vector<std::string> e2e = {
      Metric("setup_s", setup_s, "s"),
      Metric("query_p50_ms", Median(computed_ms), "ms"),
      Metric("query_p90_ms", Quantile(computed_ms, 0.9), "ms"),
      Metric("qps", qps, "1/s"),
      Metric("update_p50_ms", Median(update_ms), "ms"),
      Metric("peak_rss_mb", rss_mb, "MB"),
  };
  std::fprintf(stderr,
               "%s seed %llu: %zu ops in %.2f s, %zu computed queries, %zu "
               "updates, %llu failed\n",
               spec.name.c_str(), static_cast<unsigned long long>(a.seed),
               stream.ops.size(), stream.wall_s, computed_ms.size(),
               update_ms.size(), static_cast<unsigned long long>(failed));
  if (computed_ms.size() < 100) {
    std::fprintf(stderr, "warning: only %zu computed queries; p90 has fewer "
                 "than 10 samples beyond it\n", computed_ms.size());
  }

  // Per-layer probes run before the checks so the checks see the final
  // state; they do not mutate the session on balance.
  std::vector<std::string> layers;
  if (a.trace) {
    layers = LayerMetrics(a, spec, lines, tail, session.get(), &sched, tr);
  }

  // Correctness checks, untimed.
  Verdicts v;
  const std::vector<Edge> edges = ReadEdgeList(Path(a, "graph.txt"));
  {
    saphyra::GraphCache cache;
    std::string why;
    v.Require(saphyra::LoadSgr(sgr, &cache).ok() &&
                  SameEdgeSet(cache.graph, NumNodes(edges), edges, &why),
              "converted graph differs from the generated edge set: " + why);
  }
  uint64_t epoch = 0;
  CheckStream(lines, stream.ops, edges, spec.epsilon, &epoch, &v);
  CheckStream(tail, tail_ops, edges, spec.epsilon, &epoch, &v);
  if (spec.mutating) {
    CheckMutated(a, lines, stream.ops, edges, session.get(), &sched, &v);
  }
  CheckAgainstBrandes(a, spec, &v);
  for (const std::string& f : v.failures) {
    std::fprintf(stderr, "check failed: %s\n", f.c_str());
  }

  if (a.trace && !a.trace_out.empty()) {
    tracer.Write(a.trace_out, "{\"summary\":" + JoinMetrics(e2e) + "}");
  }
  if (a.trace) {
    std::fprintf(stderr, "end-to-end figures of this traced run: %s\n",
                 JoinMetrics(e2e).c_str());
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":%s}\n",
              v.failures.empty() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              JoinMetrics(a.trace ? layers : e2e).c_str());
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  if (argc < 2) return false;
  a->cmd = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") a->workload = val;
    else if (key == "--seed") a->seed = std::stoull(val);
    else if (key == "--dir") a->dir = val;
    else if (key == "--seconds") a->seconds = std::stod(val);
    else if (key == "--trace") a->trace = val == "1";
    else if (key == "--convert") a->convert = val;
    else if (key == "--trace-out") a->trace_out = val;
    else return false;
  }
  return !a->workload.empty() && !a->dir.empty() &&
         (a->cmd == "gen" || (a->cmd == "run" && !a->convert.empty()));
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  perfbench::WorkloadSpec spec;
  if (!perfbench::ParseArgs(argc, argv, &args) ||
      !perfbench::LookupWorkload(args.workload, &spec)) {
    std::fprintf(stderr,
                 "usage: %s gen|run --workload W --seed S --dir D "
                 "[--seconds T --trace 0|1 --convert PATH --trace-out FILE]\n",
                 argv[0]);
    return 2;
  }
  try {
    if (args.cmd == "gen") {
      perfbench::Gen(args, spec);
      return 0;
    }
    return perfbench::Run(args, spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
}
