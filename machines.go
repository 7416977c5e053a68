package diag

import (
	"fmt"
	"slices"
	"strings"

	idiag "diag/internal/diag"
)

// ---- Machine registry ----
//
// Every tool and the server refer to machines by the same names:
// "iss" for the golden ISS, "ooo" for the single-core out-of-order
// baseline, and the paper's Table 2 configurations I4C2, F4C2, F4C16,
// and F4C32. The registry is the one place those names map to
// configurations; callers reshape what it returns (MultiRing,
// BaselineMulticore) and build the Target themselves.

// NamedMachine is one registry entry. At most one of DiAG and Baseline
// is set; neither is for the ISS.
type NamedMachine struct {
	// Name is the canonical spelling: "iss", "ooo", "I4C2", "F4C2",
	// "F4C16", or "F4C32".
	Name string
	// DiAG is the configuration of a Table 2 machine.
	DiAG *Config
	// Baseline is the configuration of the "ooo" baseline.
	Baseline *BaselineConfig
}

// kind is the entry's machine kind, spelled as Snapshot.Machine spells
// it.
func (m NamedMachine) kind() string {
	switch {
	case m.DiAG != nil:
		return "diag"
	case m.Baseline != nil:
		return "ooo"
	}
	return "iss"
}

// machines builds the registry in canonical order, with fresh
// configurations on every call so no caller can alter another's.
func machines() []NamedMachine {
	base := Baseline()
	all := []NamedMachine{{Name: "iss"}, {Name: "ooo", Baseline: &base}}
	for _, cfg := range idiag.Table2Configs() {
		all = append(all, NamedMachine{Name: cfg.Name, DiAG: &cfg})
	}
	return all
}

// machineKinds are the kinds a registry lookup may be restricted to.
var machineKinds = []string{"iss", "diag", "ooo"}

// accepted returns the registry entries of the given kinds ("iss",
// "diag", "ooo"), or every entry when kinds is empty. An unknown kind is
// a programming error and panics, so a misspelled filter cannot
// silently match nothing.
func accepted(kinds []string) []NamedMachine {
	for _, k := range kinds {
		if !slices.Contains(machineKinds, k) {
			panic(fmt.Sprintf("diag: unknown machine kind %q (kinds: %s)", k, strings.Join(machineKinds, ", ")))
		}
	}
	var out []NamedMachine
	for _, m := range machines() {
		if len(kinds) == 0 || slices.Contains(kinds, m.kind()) {
			out = append(out, m)
		}
	}
	return out
}

// Machines returns the canonical names of the registered machines in
// registry order: "iss", "ooo", then the Table 2 configurations. kinds
// ("iss", "diag", "ooo" — the kinds Snapshot.Machine reports) restricts
// the list to machines of those kinds; any other kind panics.
func Machines(kinds ...string) []string {
	var names []string
	for _, m := range accepted(kinds) {
		names = append(names, m.Name)
	}
	return names
}

// MachineByName resolves name, case-insensitively, to its registry
// entry. kinds restricts the lookup as in Machines. A name that is not
// registered, or is registered under another kind, fails with an error
// listing the names that are accepted.
func MachineByName(name string, kinds ...string) (NamedMachine, error) {
	for _, m := range accepted(kinds) {
		if strings.EqualFold(name, m.Name) {
			return m, nil
		}
	}
	msg := fmt.Sprintf("unknown machine %q", name)
	if len(kinds) > 0 {
		if _, err := MachineByName(name); err == nil {
			msg = fmt.Sprintf("machine %q is not accepted here", name)
		}
	}
	return NamedMachine{}, fmt.Errorf("%s (accepted: %s)", msg, strings.Join(Machines(kinds...), ", "))
}
