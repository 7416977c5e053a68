package snap

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"diag/internal/asm"
	"diag/internal/diag"
	"diag/internal/iss"
	"diag/internal/mem"
	"diag/internal/ooo"
	"diag/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden snapshot files")

// buildImage assembles one registered workload kernel.
func buildImage(t *testing.T, name string) *mem.Image {
	t.Helper()
	w, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("workload %q not registered", name)
	}
	img, err := w.Build(workloads.Params{Scale: 1, Threads: 1})
	if err != nil {
		t.Fatalf("build %s: %v", name, err)
	}
	return img
}

// issSnapshot runs the kernel for steps instructions on the bare ISS
// and captures it.
func issSnapshot(t *testing.T, name string, steps uint64) *Snapshot {
	t.Helper()
	img := buildImage(t, name)
	m := mem.New()
	entry, err := img.Load(m)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	c := iss.New(m, entry)
	c.Run(steps)
	if c.Err != nil {
		t.Fatalf("iss run: %v", c.Err)
	}
	return &Snapshot{Kind: KindISS, ISS: &ISSState{CPU: c.State(), Mem: m.State()}}
}

// diagSnapshot runs the kernel to a mid-run pause on the DiAG machine
// and captures it.
func diagSnapshot(t *testing.T, name string, limit uint64) *Snapshot {
	t.Helper()
	mach, err := diag.NewMachine(diag.F4C2(), buildImage(t, name))
	if err != nil {
		t.Fatalf("new machine: %v", err)
	}
	if _, err := mach.RunUntil(context.Background(), limit); err != nil {
		t.Fatalf("run: %v", err)
	}
	return &Snapshot{Kind: KindDiAG, DiAG: mach.State()}
}

// oooSnapshot runs the kernel to a mid-run pause on the baseline
// machine and captures it.
func oooSnapshot(t *testing.T, name string, limit uint64) *Snapshot {
	t.Helper()
	mach, err := ooo.NewMachine(ooo.Baseline(), buildImage(t, name))
	if err != nil {
		t.Fatalf("new machine: %v", err)
	}
	if _, err := mach.RunUntil(context.Background(), limit); err != nil {
		t.Fatalf("run: %v", err)
	}
	return &Snapshot{Kind: KindOoO, OoO: mach.State()}
}

// TestRoundTrip checks the codec's two core properties on real
// mid-run snapshots of all three machines: decode(encode(s)) preserves
// every field, and encode(decode(b)) reproduces b byte for byte.
func TestRoundTrip(t *testing.T) {
	snaps := map[string]*Snapshot{
		"iss":  issSnapshot(t, "pathfinder", 500),
		"diag": diagSnapshot(t, "pathfinder", 500),
		"ooo":  oooSnapshot(t, "pathfinder", 500),
	}
	for name, s := range snaps {
		b, err := Encode(s)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(s, got) {
			t.Errorf("%s: decoded snapshot differs from original", name)
		}
		b2, err := Encode(got)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", name, err)
		}
		if !bytes.Equal(b, b2) {
			t.Errorf("%s: re-encoded bytes differ (len %d vs %d)", name, len(b), len(b2))
		}
	}
}

// TestRestoredDiAGMachineFinishesIdentically is the codec-level slice of
// the stability property: serialize a paused machine through the full
// binary format, rebuild it, finish the run, and compare against an
// uninterrupted run.
func TestRestoredDiAGMachineFinishesIdentically(t *testing.T) {
	img := buildImage(t, "pathfinder")
	straight, err := diag.NewMachine(diag.F4C2(), img)
	if err != nil {
		t.Fatal(err)
	}
	if err := straight.Run(); err != nil {
		t.Fatal(err)
	}

	b, err := Encode(diagSnapshot(t, "pathfinder", straight.Stats().Retired/2))
	if err != nil {
		t.Fatal(err)
	}
	s, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := diag.NewMachineFromState(s.DiAG)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Stats(), straight.Stats(); !reflect.DeepEqual(got, want) {
		t.Errorf("restored stats differ:\ngot  %+v\nwant %+v", got, want)
	}
	if got, want := restored.Mem().Digest(), straight.Mem().Digest(); got != want {
		t.Errorf("restored memory digest %#x, want %#x", got, want)
	}
}

// forwardingLoop stores to eight words that share one slot of the
// baseline core's 256-entry store index (1 KiB apart) and loads both the
// word just stored (forwarded) and the previous iteration's word (found
// behind a colliding, newer store in the same slot). It also loads word
// 0, never stored: an index slot no store has written reads as word 0,
// which only a correctly rebuilt index keeps out of the window.
const forwardingLoop = `
	li   t0, 0x4000
	li   t1, 0
	li   t2, 3000
	li   t3, 7
loop:
	andi t5, t1, 7
	slli t5, t5, 10
	add  t5, t5, t0
	sw   t3, 0(t5)
	sw   t1, 4(t5)
	lw   t4, 0(t5)
	lw   t6, -1024(t5)
	lw   s1, 0(zero)
	add  t3, t4, t3
	add  t3, t3, t6
	addi t1, t1, 1
	blt  t1, t2, loop
	ebreak
`

// TestRestoredOoOMachineForwardsIdentically pauses a store-forwarding
// loop with a full store window at several points, sends each pause
// through the binary format, and finishes the run: the restored core
// must rebuild its store index from the window and forward exactly as
// an uninterrupted run does.
func TestRestoredOoOMachineForwardsIdentically(t *testing.T) {
	img, err := asm.Assemble(forwardingLoop)
	if err != nil {
		t.Fatal(err)
	}
	straight, err := ooo.NewMachine(ooo.Baseline(), img)
	if err != nil {
		t.Fatal(err)
	}
	if err := straight.Run(); err != nil {
		t.Fatal(err)
	}
	want := straight.Stats()
	if want.StoreForwards < 3000 {
		t.Fatalf("straight run forwarded %d loads, want heavy forwarding", want.StoreForwards)
	}
	for _, limit := range []uint64{1001, 7919, 20002, 33333} {
		mach, err := ooo.NewMachine(ooo.Baseline(), img)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mach.RunUntil(context.Background(), limit); err != nil {
			t.Fatal(err)
		}
		st := mach.State()
		if c := st.Units[0]; c.StoreLen != len(c.StoreWindow) || c.Stats.StoreForwards == 0 {
			t.Fatalf("pause at %d: store window %d/%d, %d forwards; want a full, forwarding window",
				limit, c.StoreLen, len(c.StoreWindow), c.Stats.StoreForwards)
		}
		b, err := Encode(&Snapshot{Kind: KindOoO, OoO: st})
		if err != nil {
			t.Fatal(err)
		}
		s, err := Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		restored, err := ooo.NewMachineFromState(s.OoO)
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.Run(); err != nil {
			t.Fatal(err)
		}
		if got := restored.Stats(); !reflect.DeepEqual(got, want) {
			t.Errorf("pause at %d: restored stats differ (forwards %d, cycles %d; want %d, %d)",
				limit, got.StoreForwards, got.Cycles, want.StoreForwards, want.Cycles)
		}
		if got, want := restored.Mem().Digest(), straight.Mem().Digest(); got != want {
			t.Errorf("pause at %d: restored memory digest %#x, want %#x", limit, got, want)
		}
	}
}

// TestDecodeRejects covers the malformed-input classes Decode must
// refuse: wrong schema, unknown kind, corruption (digest), truncation,
// and trailing bytes.
func TestDecodeRejects(t *testing.T) {
	good, err := Encode(issSnapshot(t, "pathfinder", 100))
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), good...))
	}
	cases := map[string][]byte{
		"empty":       {},
		"short":       good[:len(Schema)],
		"bad schema":  mutate(func(b []byte) []byte { b[0] ^= 0xff; return b }),
		"bad kind":    mutate(func(b []byte) []byte { b[len(Schema)] = 99; return b }),
		"corrupted":   mutate(func(b []byte) []byte { b[len(b)/2] ^= 1; return b }),
		"truncated":   good[:len(good)-1],
		"no trailer":  good[:len(good)-9],
		"extra bytes": append(append([]byte(nil), good...), 0),
	}
	for name, b := range cases {
		if _, err := Decode(b); err == nil {
			t.Errorf("%s: Decode accepted malformed input", name)
		}
	}
	if _, err := Decode(good); err != nil {
		t.Fatalf("control: Decode rejected valid input: %v", err)
	}
}

// TestEncodeRejectsMismatchedKind checks Encode's payload validation.
func TestEncodeRejectsMismatchedKind(t *testing.T) {
	for _, s := range []*Snapshot{
		{Kind: KindISS},
		{Kind: KindDiAG},
		{Kind: KindOoO},
		{Kind: 0},
		{Kind: KindISS, DiAG: &diag.MachineState{}},
	} {
		if _, err := Encode(s); err == nil {
			t.Errorf("Encode accepted invalid snapshot %+v", s)
		}
	}
}

// TestGolden pins the diag-snap/v1 wire format: one fixed kernel per
// machine, snapshotted at a fixed pause point, must encode to exactly
// the bytes in testdata. A failure means the format changed — that
// requires a schema version bump, not a golden update. Regenerate with
// -update only alongside a deliberate, documented format change.
func TestGolden(t *testing.T) {
	cases := map[string]*Snapshot{
		"iss.snap":  issSnapshot(t, "nw", 300),
		"diag.snap": diagSnapshot(t, "nw", 300),
		"ooo.snap":  oooSnapshot(t, "nw", 300),
	}
	for name, s := range cases {
		path := filepath.Join("testdata", name)
		got, err := Encode(s)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update to regenerate)", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: encoding changed (%d bytes, want %d) — diag-snap/v1 must stay stable; bump the schema version for format changes",
				name, len(got), len(want))
		}
		if _, err := Decode(want); err != nil {
			t.Errorf("%s: golden bytes no longer decode: %v", name, err)
		}
	}
}

// TestLoad exercises the io.Reader form.
func TestLoad(t *testing.T) {
	s := issSnapshot(t, "pathfinder", 100)
	b, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Error("loaded snapshot differs from encoded")
	}
}
