package diag_test

import (
	"fmt"
	"strings"
	"testing"

	"diag"
)

// exploreLabel expands the one-point design space holding cfg's
// architecture and returns the label the explorer gives the candidate.
func exploreLabel(t *testing.T, cfg diag.Config) string {
	t.Helper()
	l2 := cfg.L2Size
	if l2 < 0 {
		l2 = 0 // the space spells "no L2" as size 0
	}
	s := diag.Space{
		ISA:             []string{cfg.ISA.String()},
		PEsPerCluster:   []int{cfg.PEsPerCluster},
		Clusters:        []int{cfg.Clusters},
		Rings:           []int{cfg.Rings},
		LaneBufferEvery: []int{cfg.LaneBufferEvery},
		BusCycles:       []int{cfg.BusCycles},
		L1I:             diag.SpaceMemLevel{Sizes: []int{cfg.L1ISize}},
		L1D:             diag.SpaceMemLevel{Sizes: []int{cfg.L1DSize}, Banks: []int{cfg.L1DBanks}},
		L2:              diag.SpaceMemLevel{Sizes: []int{l2}},
		MemLaneLines:    []int{cfg.MemLaneLines},
		DRAMLatency:     []int{cfg.DRAMLatency},
	}
	cands, _, err := s.Expand()
	if err != nil || len(cands) != 1 {
		t.Fatalf("%s: one-point space expanded to %d candidates, %v", cfg.Name, len(cands), err)
	}
	return cands[0].Label()
}

// TestMachineRegistry pins the registry: canonical spellings and order,
// case-insensitive resolution, the configuration behind every name,
// the shared rejection message, and explore's Table 2 labels.
func TestMachineRegistry(t *testing.T) {
	want := []string{"iss", "ooo", "I4C2", "F4C2", "F4C16", "F4C32"}
	if got := diag.Machines(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("Machines() = %v, want %v", got, want)
	}
	ctors := map[string]func() diag.Config{
		"I4C2": diag.I4C2, "F4C2": diag.F4C2, "F4C16": diag.F4C16, "F4C32": diag.F4C32,
	}
	for _, name := range diag.Machines() {
		mixed := []byte(strings.ToLower(name))
		mixed[0] = strings.ToUpper(name)[0]
		for _, spelling := range []string{name, strings.ToUpper(name), strings.ToLower(name), string(mixed)} {
			m, err := diag.MachineByName(spelling)
			if err != nil || m.Name != name {
				t.Fatalf("MachineByName(%q) = %q, %v; want %q", spelling, m.Name, err, name)
			}
		}
		m, _ := diag.MachineByName(name)
		switch ctor, isDiAG := ctors[name]; {
		case isDiAG:
			if m.DiAG == nil || m.Baseline != nil || *m.DiAG != ctor() {
				t.Errorf("%s: entry %+v does not hold %s()", name, m, name)
			}
			if got := exploreLabel(t, *m.DiAG); got != name {
				t.Errorf("%s: explore labels its architecture %q", name, got)
			}
		case name == "ooo":
			if m.Baseline == nil || m.DiAG != nil || *m.Baseline != diag.Baseline() {
				t.Errorf("ooo: entry %+v does not hold Baseline()", m)
			}
		default:
			if m.DiAG != nil || m.Baseline != nil {
				t.Errorf("iss: entry %+v carries a configuration", m)
			}
		}
	}

	// Entries are fresh copies: editing one never leaks into the next
	// lookup.
	m, _ := diag.MachineByName("F4C2")
	m.DiAG.Clusters = 99
	if again, _ := diag.MachineByName("F4C2"); again.DiAG.Clusters != diag.F4C2().Clusters {
		t.Error("a caller's edit leaked into the registry")
	}

	for _, tc := range []struct {
		name   string
		kinds  []string
		prefix string
		list   string
	}{
		{"Z80", nil, `unknown machine "Z80"`, "iss, ooo, I4C2, F4C2, F4C16, F4C32"},
		{"", nil, `unknown machine ""`, "iss, ooo, I4C2, F4C2, F4C16, F4C32"},
		{"Z80", []string{"diag"}, `unknown machine "Z80"`, "I4C2, F4C2, F4C16, F4C32"},
		{"iss", []string{"diag", "ooo"}, `machine "iss" is not accepted here`, "ooo, I4C2, F4C2, F4C16, F4C32"},
		{"OOO", []string{"diag"}, `machine "OOO" is not accepted here`, "I4C2, F4C2, F4C16, F4C32"},
	} {
		_, err := diag.MachineByName(tc.name, tc.kinds...)
		if want := tc.prefix + " (accepted: " + tc.list + ")"; err == nil || err.Error() != want {
			t.Errorf("MachineByName(%q, %v) error = %v, want %q", tc.name, tc.kinds, err, want)
		}
	}
	if got := diag.Machines("diag", "ooo"); strings.Join(got, ",") != "ooo,I4C2,F4C2,F4C16,F4C32" {
		t.Errorf("Machines(diag, ooo) = %v", got)
	}

	// A misspelled kind is a programming error, not an empty filter.
	defer func() {
		if r := recover(); !strings.Contains(fmt.Sprint(r), `unknown machine kind "OoO"`) {
			t.Errorf("MachineByName with kind OoO: recovered %v, want an unknown-machine-kind panic", r)
		}
	}()
	diag.MachineByName("ooo", "OoO")
	t.Error("MachineByName with kind OoO returned")
}
