// Tests of the benchmark's correctness checks: each must reject the fault
// it exists to catch. Exits 0 when every case behaves.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "checks.h"
#include "gen.h"
#include "reference.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

// A path 0-1-2-3: bc(1) = bc(2) = 4 / 12 over ordered pairs.
void BrandesOnAPath() {
  const std::vector<Edge> path = {{0, 1}, {1, 2}, {2, 3}};
  const std::vector<double> bc = BrandesReference(4, path);
  Expect(bc[0] == 0.0 && bc[3] == 0.0 && std::fabs(bc[1] - 4.0 / 12) < 1e-15 &&
             std::fabs(bc[2] - 4.0 / 12) < 1e-15,
         "Brandes reference on a path uses ordered-pair normalisation");
}

void PerturbedEstimateIsRejected() {
  const GeneratedGraph g = SocialGraph(300, 3, 0.3, 7);
  const std::vector<double> exact = BrandesReference(g.num_nodes, g.edges);
  const double eps = 0.02, delta = 0.01;
  std::vector<Answer> answers;
  for (uint32_t q = 0; q < 20; ++q) {
    Answer a;
    for (uint32_t v = q; v < g.num_nodes; v += 20) {
      a.nodes.push_back(v);
      a.estimates.push_back(exact[v]);
    }
    answers.push_back(a);
  }
  Expect(CheckErrorBound(answers, exact, eps, delta).ok(),
         "exact answers pass the error bound");
  // One estimate per query perturbed by more than epsilon: every query
  // fails, far beyond the binomial tail.
  std::vector<Answer> bad = answers;
  for (Answer& a : bad) a.estimates[0] += 1.5 * eps;
  const ErrorBoundVerdict v = CheckErrorBound(bad, exact, eps, delta);
  Expect(!v.ok() && v.failing == 20, "perturbed estimates are rejected");
  // A single perturbed query is within the tail of 20 queries at delta.
  bad = answers;
  bad[3].estimates[1] -= 1.5 * eps;
  Expect(MaxError(bad[3], exact) >= eps, "one perturbed estimate fails its query");
  Expect(CheckErrorBound(bad, exact, eps, delta).failing == 1,
         "one perturbed query is counted once");
  Answer nan = answers[0];
  nan.estimates[0] = NAN;
  Expect(!(MaxError(nan, exact) < eps), "a NaN estimate fails its query");
}

void BinomialTail() {
  // P(Bin(20, 0.01) > 2) = 1.0e-3 and P(> 3) = 4.3e-5.
  Expect(BinomialTailLimit(20, 0.01, 1e-3) == 3, "binomial tail limit Q=20");
  Expect(BinomialTailLimit(100, 0.01, 1e-3) == 5, "binomial tail limit Q=100");
  Expect(BinomialTailLimit(5, 0.5, 1e-9) == 5, "tail limit never exceeds Q");
}

void FlippedBitIsRejected() {
  Answer a{{1, 5, 9}, {0.125, 0.0, 0.3}, 1000};
  Answer b = a;
  std::string why;
  Expect(SameBits(a, b, &why), "identical answers compare equal");
  uint64_t bits;
  std::memcpy(&bits, &b.estimates[2], sizeof(bits));
  bits ^= 1;  // the lowest mantissa bit
  std::memcpy(&b.estimates[2], &bits, sizeof(bits));
  Expect(!SameBits(a, b, &why), "a flipped estimate bit is rejected");
  b = a;
  b.estimates[1] = -0.0;
  Expect(!SameBits(a, b, &why), "-0.0 differs from +0.0 bitwise");
  b = a;
  b.samples = 1001;
  Expect(!SameBits(a, b, &why), "a different sample count is rejected");
}

void GeneratorsAreSeeded() {
  const GeneratedGraph a = RoadGraph(30, 30, 0.7, 3), b = RoadGraph(30, 30, 0.7, 3);
  const GeneratedGraph c = RoadGraph(30, 30, 0.7, 4);
  Expect(a.edges == b.edges && a.edges != c.edges,
         "same seed, same graph; another seed, another graph");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::BrandesOnAPath();
  perfbench::PerturbedEstimateIsRejected();
  perfbench::BinomialTail();
  perfbench::FlippedBitIsRejected();
  perfbench::GeneratorsAreSeeded();
  std::printf("%d failure(s)\n", perfbench::failures);
  return perfbench::failures == 0 ? 0 : 1;
}
