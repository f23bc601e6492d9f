// CPU placement.  The benchmark's process runs on one CPU at a time; on a
// shared host the CPUs it may use are not equally fast at any moment (one
// can run ~1.5x slower than another for seconds at a time, likely behind a
// busy sibling hyper-thread), so each episode first moves to the CPU that
// runs a short probe fastest.  perfbench/NOTES.md has the measurements.
#pragma once

namespace pb {

/// Records the CPUs the process may use.  Call once, before any pinning.
void remember_cpus();

/// Pins the calling thread, and so every thread it starts later, to the
/// remembered CPU on which a short hand-off + memory probe runs fastest.
/// Leaves the affinity alone when it cannot be read or set.
void pin_to_quietest_cpu();

}  // namespace pb
