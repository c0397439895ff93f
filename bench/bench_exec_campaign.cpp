// CampaignRunner scaling benchmark: the acceptance experiment for the
// sci::exec parallel runner. A 4-machine x 4-size simulated ping-pong
// latency campaign (16 cells, 4000 samples each) runs with 1, 2, 4, and
// 8 workers; for each worker count we report wall-clock time, speedup
// over the single-worker run, and verify the determinism contract by
// comparing the exported per-sample CSV byte-for-byte against the
// 1-worker reference. Each row builds a fresh runner, whose cache starts
// empty, so every run executes all cells.
//
// Expected behaviour: near-linear speedup up to the host's core count
// (cells are independent simulator worlds with no shared state). On a
// single-core host every worker count collapses to ~1x -- the contract
// still holds (identical bytes), there is just no parallel hardware to
// exploit. Results for this repo's reference container are recorded in
// bench/RESULTS_exec_campaign.md.
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exec/runner.hpp"
#include "exec/sim_backend.hpp"
#include "harness.hpp"

using namespace sci;

namespace {

exec::Campaign make_campaign() {
  exec::CampaignSpec spec;
  spec.name = "exec_scaling_bench";
  spec.description = "4 systems x 4 message sizes, simulated ping-pong";
  spec.factors.push_back({"system", {"daint", "dora", "pilatus", "bgq"}});
  spec.factors.push_back({"message_bytes", {"64", "1024", "4096", "16384"}});
  spec.seed = 7;
  return exec::Campaign(spec);
}

std::string samples_csv(const exec::CampaignResult& result) {
  std::ostringstream os;
  result.samples_dataset().write_csv(os);
  return os.str();
}

exec::SimBackendOptions make_backend_options(std::size_t samples) {
  exec::SimBackendOptions bopts;
  bopts.kernel = exec::SimKernel::kPingPong;
  bopts.samples = samples;
  bopts.scale = 1e6;
  bopts.unit = "us";
  return bopts;
}

}  // namespace

int main(int argc, char** argv) {
  bench::init("exec_campaign", argc, argv);
  constexpr std::size_t kSamplesPerCell = 4000;

  std::printf("CampaignRunner scaling: 16 cells x %zu samples, cold cache\n",
              kSamplesPerCell);
  std::printf("hardware_concurrency: %u\n\n", std::thread::hardware_concurrency());
  std::printf("%8s %12s %9s %12s\n", "workers", "wall [ms]", "speedup", "bytes-equal");

  std::string reference_csv;
  double reference_ms = 0.0;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    exec::SimBackend backend(make_backend_options(kSamplesPerCell));
    exec::CampaignRunnerOptions ropts;
    ropts.workers = workers;
    exec::CampaignRunner runner(backend, make_campaign(), ropts);

    const double t0 = bench::now_s();
    const exec::CampaignResult result = runner.run();
    const double ms = (bench::now_s() - t0) * 1e3;

    const std::string csv = samples_csv(result);
    bool equal = true;
    if (reference_csv.empty()) {
      reference_csv = csv;
      reference_ms = ms;
    } else {
      equal = csv == reference_csv;
    }
    std::printf("%8zu %12.1f %8.2fx %12s\n", workers, ms, reference_ms / ms,
                equal ? "yes" : "NO -- CONTRACT VIOLATED");
    bench::check(equal, "sample CSV bytes equal the 1-worker reference");
    const double sample[] = {ms};
    bench::summarize("wall_ms." + std::to_string(workers) + "w", "ms", sample);
  }
  return bench::finish();
}
