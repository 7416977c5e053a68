// Package hostbench holds the simulator's host-allocation pins: go test
// checks that the steady-state step loops of all three machine models
// allocate nothing, that a warmed end-to-end ISS run allocates
// exactly the one page its kernel's first store touches, that an
// observed timing run allocates no more at 4N loop iterations than at
// N, bar its occupancy timeseries' growth, and that a machine build
// allocates what its page tables need, not what its caches hold. Host
// throughput itself is measured by perfbench (BENCHMARK.json); these
// pins are the part of the measurement a throughput benchmark cannot
// express as a pass/fail check.
package hostbench
