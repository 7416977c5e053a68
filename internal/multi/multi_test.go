package multi_test

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"diag/internal/asm"
	"diag/internal/diag"
	"diag/internal/iss"
	"diag/internal/mem"
	"diag/internal/obsv"
	"diag/internal/ooo"
)

// machine is the engine surface both timing machines share.
type machine interface {
	SetShards(n int)
	SetObserver(o obsv.Observer)
	Run() error
	RunUntil(ctx context.Context, limit uint64) (bool, error)
	Mem() *mem.Memory
	Units() int
	Retired() uint64
}

// kind is one timing model under the engine: how to build its 4-unit
// machine and reach the per-kind pieces the engine does not expose.
type kind struct {
	name    string
	unit    string // error-attribution noun
	build   func(*mem.Image) (machine, error)
	stats   func(machine) any
	cpu     func(m machine, i int) *iss.CPU
	preStep func(m machine, i int, f func(now int64))
}

var kinds = []kind{
	{
		name: "diag/mt4", unit: "ring",
		build: func(img *mem.Image) (machine, error) {
			return diag.NewMachine(diag.MultiRing(diag.F4C16(), 4, 4), img)
		},
		stats:   func(m machine) any { return m.(*diag.Machine).Stats() },
		cpu:     func(m machine, i int) *iss.CPU { return m.(*diag.Machine).Ring(i).CPU() },
		preStep: func(m machine, i int, f func(int64)) { m.(*diag.Machine).Ring(i).PreStep = f },
	},
	{
		name: "ooo/mc4", unit: "core",
		build: func(img *mem.Image) (machine, error) {
			return ooo.NewMachine(ooo.BaselineMulticore(4), img)
		},
		stats:   func(m machine) any { return m.(*ooo.Machine).Stats() },
		cpu:     func(m machine, i int) *iss.CPU { return m.(*ooo.Machine).Core(i).CPU() },
		preStep: func(m machine, i int, f func(int64)) { m.(*ooo.Machine).Core(i).PreStep = f },
	},
}

func assemble(t *testing.T, src string) *mem.Image {
	t.Helper()
	img, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return img
}

// reduction is the data-parallel kernel: each unit sums its chunk of a
// 256-word array into 0x900+4*tid — disjoint write sets, the engine's
// contract for multi-unit runs.
func reduction(t *testing.T) *mem.Image {
	img := assemble(t, `
	li   t0, 256
	divu t1, t0, gp
	mul  t2, t1, tp
	add  t3, t2, t1
	li   s0, 0x100000
	li   s1, 0
loop:
	slli t4, t2, 2
	add  t4, t4, s0
	lw   t5, 0(t4)
	add  s1, s1, t5
	addi t2, t2, 1
	blt  t2, t3, loop
	slli t6, tp, 2
	li   s2, 0x900
	add  s2, s2, t6
	sw   s1, 0(s2)
	ebreak
	`)
	data := make([]byte, 1024)
	for i := 0; i < 256; i++ {
		w := uint32(i)*7 + 3
		data[4*i], data[4*i+1], data[4*i+2], data[4*i+3] = byte(w), byte(w>>8), byte(w>>16), byte(w>>24)
	}
	img.Segments = append(img.Segments, mem.Segment{Addr: 0x100000, Data: data})
	return img
}

// run is one observed run's outcome.
type run struct {
	stats  any
	digest uint64
	counts map[obsv.Kind]int
	events []obsv.Event
	err    error
}

// observe builds a machine for img, lets setup prepare it, and runs it
// with a full observer attached.
func observe(t *testing.T, k kind, img *mem.Image, shards int, setup func(machine) error) run {
	t.Helper()
	m, err := k.build(img)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	buf := &obsv.Buffer{}
	m.SetObserver(buf)
	m.SetShards(shards)
	if setup != nil {
		if err := setup(m); err != nil {
			return run{err: err}
		}
	}
	err = m.Run()
	counts := map[obsv.Kind]int{}
	for _, e := range buf.Events {
		counts[e.Kind]++
	}
	return run{k.stats(m), m.Mem().Digest(), counts, buf.Events, err}
}

func same(t *testing.T, what string, got, want run) {
	t.Helper()
	if !reflect.DeepEqual(got.stats, want.stats) {
		t.Errorf("%s: stats diverge:\n got %+v\nwant %+v", what, got.stats, want.stats)
	}
	if got.digest != want.digest {
		t.Errorf("%s: memory digest %#x, want %#x", what, got.digest, want.digest)
	}
	if !reflect.DeepEqual(got.counts, want.counts) {
		t.Errorf("%s: event counts per kind %v, want %v", what, got.counts, want.counts)
	}
	if !reflect.DeepEqual(got.events, want.events) {
		t.Errorf("%s: observer stream diverges (%d events, want %d)", what, len(got.events), len(want.events))
	}
}

// TestShardedEngine drives the one sharding implementation through
// both timing models: sharded runs equal sequential ones, the lowest
// failing unit wins, anything that needs the sequential order (a pause,
// a PreStep, a CPU Hook) falls back to it, and a failed sharded run
// leaves a machine that can be inspected and run again.
func TestShardedEngine(t *testing.T) {
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			img := reduction(t)
			ref := observe(t, k, img, 1, nil)
			if ref.err != nil {
				t.Fatalf("sequential run: %v", ref.err)
			}
			if len(ref.events) == 0 {
				t.Fatal("sequential reference emitted no events")
			}

			t.Run("matches-sequential", func(t *testing.T) {
				for _, shards := range []int{2, 3, 4, 8} {
					got := observe(t, k, img, shards, nil)
					if got.err != nil {
						t.Fatalf("shards=%d: %v", shards, got.err)
					}
					same(t, fmt.Sprintf("shards=%d", shards), got, ref)
				}
			})

			t.Run("pause-falls-back", func(t *testing.T) {
				got := observe(t, k, img, 4, func(m machine) error {
					paused, err := m.RunUntil(context.Background(), m.Retired()+200)
					if err == nil && !paused {
						err = fmt.Errorf("no pause at 200 retired instructions")
					}
					return err
				})
				if got.err != nil {
					t.Fatal(got.err)
				}
				same(t, "paused+resumed", got, ref)
			})

			// Per-unit retirement order: sequential execution retires
			// every unit-0 instruction before any unit-1 one, and so on.
			// A sharded run would interleave (and race on order).
			for _, hook := range []string{"prestep", "cpu-hook"} {
				t.Run(hook+"-falls-back", func(t *testing.T) {
					var order []int
					got := observe(t, k, img, 4, func(m machine) error {
						for i := 0; i < m.Units(); i++ {
							if hook == "prestep" {
								k.preStep(m, i, func(int64) { order = append(order, i) })
							} else {
								k.cpu(m, i).Hook = func(iss.Exec) { order = append(order, i) }
							}
						}
						return nil
					})
					if got.err != nil {
						t.Fatal(got.err)
					}
					same(t, hook, got, ref)
					if len(order) == 0 || !sort.IntsAreSorted(order) {
						t.Errorf("%s: units retired out of sequential order", hook)
					}
				})
			}

			t.Run("lowest-failure-wins", func(t *testing.T) {
				// Units 1 and 2 execute an unsupported ecall; every
				// unit that completes stores a marker.
				bad := assemble(t, `
	li   t1, 1
	beq  tp, t1, fail
	li   t1, 2
	beq  tp, t1, fail
	slli t2, tp, 2
	li   t3, 0x900
	add  t3, t3, t2
	li   t4, 7
	sw   t4, 0(t3)
	ebreak
fail:
	ecall
	`)
				seq := observe(t, k, bad, 1, nil)
				sh, err := k.build(bad)
				if err != nil {
					t.Fatal(err)
				}
				sh.SetShards(4)
				shErr := sh.Run()
				if seq.err == nil || shErr == nil {
					t.Fatalf("expected failures, got sequential=%v sharded=%v", seq.err, shErr)
				}
				if shErr.Error() != seq.err.Error() {
					t.Errorf("error mismatch:\n sequential: %v\n sharded:    %v", seq.err, shErr)
				}
				if want := k.unit + " 1:"; !strings.HasPrefix(shErr.Error(), want) {
					t.Errorf("error not attributed to %s: %v", want, shErr)
				}
				// Unit 0 ran before the failing unit and is committed;
				// unit 3 never ran in sequential order and is not.
				for tid, want := range map[int]uint32{0: 7, 3: 0} {
					if got := sh.Mem().LoadWord(uint32(0x900 + 4*tid)); got != want {
						t.Errorf("unit %d marker = %d, want %d", tid, got, want)
					}
				}
				if sh.Mem().Digest() != seq.digest {
					t.Errorf("failed sharded digest %#x, want sequential %#x", sh.Mem().Digest(), seq.digest)
				}

				// Re-runnable: every unit is back on the machine's
				// memory, so a second run (sequential now: the cursor
				// sits on the failed unit) writes where the machine
				// can see it, and does so deterministically.
				for i := 0; i < sh.Units(); i++ {
					if k.cpu(sh, i).Mem != sh.Mem() {
						t.Errorf("unit %d left on a private memory clone", i)
					}
				}
				twin, err := k.build(bad)
				if err != nil {
					t.Fatal(err)
				}
				twin.SetShards(4)
				twin.Run()
				again, twinAgain := sh.Run(), twin.Run()
				if fmt.Sprint(again) != fmt.Sprint(twinAgain) || sh.Mem().Digest() != twin.Mem().Digest() {
					t.Errorf("re-runs of identically failed machines diverge: %v vs %v", again, twinAgain)
				}
				if got := sh.Mem().LoadWord(0x900); got != 7 {
					t.Errorf("unit 0 marker lost on re-run: %d", got)
				}
			})
		})
	}
}
