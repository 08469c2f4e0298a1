// Beyond-paper bench: the fast-path/slow-path queue vs the paper's variants.
//
// §3.3's closing suggestion — make the time complexity depend on actual
// contention rather than n — is wf_queue's optional fast path
// (wf_queue_fps, core/wf_queue.hpp), built with the methodology Kogan &
// Petrank published the following year. Expected
// shape: `WF fps` tracks the lock-free MS queue closely (its common path IS
// the MS queue plus one announce-array probe) while keeping the wait-free
// guarantee, and both KP'11 variants trail it; the gap between fps and LF is
// the true price of wait-freedom once the per-operation bookkeeping is
// off the common path.
//
// Flags: --threads N | --full, --iters N, --reps N, --pin, --csv.
#include <cstdint>

#include "baseline/ms_queue.hpp"
#include "bench_common.hpp"
#include "core/wf_queue.hpp"

int main(int argc, char** argv) {
  using namespace kpq;
  using namespace kpq::bench;

  bench_params p = parse_params(argc, argv, /*default_iters=*/20000);

  figure fig("Fast-path/slow-path vs the paper's variants (pairs)", p);
  fig.add_series("LF");
  fig.add_series("WF fps");
  fig.add_series("opt WF (1+2)");
  fig.add_series("base WF");

  for (std::uint32_t th : p.threads) {
    fig.add_cell(measure_pairs<ms_queue<std::uint64_t>>(th, p));
    fig.add_cell(measure_pairs<wf_queue_fps<std::uint64_t>>(th, p));
    fig.add_cell(measure_pairs<wf_queue_opt<std::uint64_t>>(th, p));
    fig.add_cell(measure_pairs<wf_queue_base<std::uint64_t>>(th, p));
  }
  fig.print(p.threads);
  return 0;
}
