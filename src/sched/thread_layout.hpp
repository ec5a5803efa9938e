#pragma once
// Thread layout resolution (DESIGN.md §9).
//
// The paper's two multithreading modes (§III-E) are the corners of one
// layout: `outer_copies` engines run whole iterations concurrently,
// each with private tables, and each sweeps its DP stages with the
// pool's remaining threads.  outer_copies = 1 is the paper's inner
// loop, one copy per thread its outer loop, and a single thread the
// serial run.  sched::detail::drive, the mixed counter and the service's
// admission quote all resolve the knob here.

#include "core/count_options.hpp"

namespace fascia {

/// Splits a pool of `threads` (0 = the OpenMP default) into
/// `outer_copies` engine copies (0 = one per thread; clamped to the
/// pool), each sweeping with max(1, pool / copies) inner threads.
/// Throws Error(kUsage) on a negative copy count.
ThreadLayout resolve_layout(int outer_copies, int threads);

}  // namespace fascia
