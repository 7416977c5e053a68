// Package hostbench holds the simulator's host-allocation pins: go test
// checks that the steady-state step loops of all three machine models
// allocate nothing, that a warmed end-to-end ISS run allocates
// exactly the one page its kernel's first store touches, and that an
// observed timing run allocates no more at 4N loop iterations than at
// N, bar its occupancy timeseries' growth. Host
// throughput itself is measured by perfbench (BENCHMARK.json); these
// pins are the part of the measurement a throughput benchmark cannot
// express as a pass/fail check.
package hostbench
