package main

import (
	"fmt"
	"math/rand"
	"time"

	"diag"
	"diag/internal/mem"
	"diag/internal/workloads"
)

// machine is one simulated machine the kernel ops run on.
type machine struct {
	name   string // kind-name component
	family string
	target func() diag.Target
	// scale multiplies the kernels' problem size: the ISS is ~8x faster
	// than the timing models, so its ops get more work to stay in the
	// tens of milliseconds.
	scale int
}

var machines = []machine{
	{"iss", famISS, diag.ISS, 4},
	{"F4C2", famDiAG, func() diag.Target { return diag.DiAG(diag.F4C2()) }, 1},
	{"F4C16", famDiAG, func() diag.Target { return diag.DiAG(diag.F4C16()) }, 1},
	{"ooo", famOoO, func() diag.Target { return diag.OoO(diag.Baseline()) }, 1},
}

// kernel is one program the kernel ops run to completion.
type kernel struct {
	name   string
	class  string // compute, memory or control
	scale  int    // workload scale at machine scale 1
	seeded bool
}

// kernelSet spans the compute, memory and control classes; chase's
// working set (256 KiB) is larger than every modelled L1D.
var kernelSet = []kernel{
	{"x264", "compute", 4, false},
	{"mcf", "memory", 2, false},
	{"perlbench", "control", 2, false},
	{"chase", "memory", 1, true},
}

// probeKernels is the subset other workloads run to report sim-MIPS.
var probeKernels = []kernel{{"x264", "compute", 4, false}}

// program is a built kernel image with its reference results.
type program struct {
	name    string
	img     *diag.Program
	check   func(m *mem.Memory) error
	retired uint64 // golden ISS retired count
	digest  uint64 // golden ISS memory digest
}

// buildKernel builds k at the given scale multiplier. The chase kernel
// derives its permutation from rng.
func buildKernel(tr *tracer, parent int, k kernel, mult int, rng *rand.Rand) (*program, error) {
	if k.name == "chase" {
		return buildChase(tr, parent, rng, 65536*mult)
	}
	w, ok := workloads.ByName(k.name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %s", k.name)
	}
	p := workloads.Params{Scale: k.scale * mult, Threads: 1}
	var img *mem.Image
	_, err := tr.timed("workloads.build", parent, func() error {
		var err error
		img, err = w.Build(p)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &program{
		name:  fmt.Sprintf("%s/%d", k.name, p.Scale),
		img:   img,
		check: func(m *mem.Memory) error { return w.Check(m, p) },
	}, nil
}

// chaseBase and chaseOut are the chase kernel's data and result
// addresses.
const (
	chaseBase = 0x0010_0000
	chaseOut  = 0x0040_0000
)

// buildChase makes a pointer chase over one random cycle of n words
// (Sattolo's algorithm), hashing the visited indices: every load
// depends on the previous one and the walk touches all 4n bytes.
func buildChase(tr *tracer, parent int, rng *rand.Rand, n int) (*program, error) {
	next := make([]uint32, n)
	for i := range next {
		next[i] = uint32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i)
		next[i], next[j] = next[j], next[i]
	}
	start := uint32(rng.Intn(n))
	hash, idx := uint32(0x811c9dc5), start
	for i := 0; i < n; i++ {
		idx = next[idx]
		hash = (hash ^ idx) * 0x01000193
	}
	src := fmt.Sprintf(`
	li   s0, %d
	li   s1, %d
	li   s2, %d
	li   s3, 0x811c9dc5
	li   s4, 0x01000193
loop:
	slli t0, s2, 2
	add  t0, t0, s0
	lw   s2, 0(t0)
	xor  s3, s3, s2
	mul  s3, s3, s4
	addi s1, s1, -1
	bnez s1, loop
	li   t1, %d
	sw   s3, 0(t1)
	sw   s2, 4(t1)
	ebreak
`, chaseBase, n, start, chaseOut)
	var img *diag.Program
	_, err := tr.timed("asm.assemble", parent, func() error {
		var err error
		img, err = diag.Assemble(src)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("chase: %w", err)
	}
	data := make([]byte, 4*n)
	for i, v := range next {
		data[4*i], data[4*i+1], data[4*i+2], data[4*i+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	}
	img.Segments = append(img.Segments, mem.Segment{Addr: chaseBase, Data: data})
	return &program{
		name: fmt.Sprintf("chase/%d", n),
		img:  img,
		check: func(m *mem.Memory) error {
			if h, i := m.LoadWord(chaseOut), m.LoadWord(chaseOut+4); h != hash || i != start {
				return fmt.Errorf("chase result (%#x, %d), want (%#x, %d)", h, i, hash, start)
			}
			return nil
		},
	}, nil
}

// golden runs p on the golden ISS and keeps its retired count and
// memory digest as the reference every machine must reproduce.
func (p *program) golden() error {
	res, err := diag.ISS().Run(p.img)
	if err != nil {
		return fmt.Errorf("%s on the golden ISS: %w", p.name, err)
	}
	if err := p.check(res.Mem); err != nil {
		return fmt.Errorf("%s on the golden ISS: %w", p.name, err)
	}
	p.retired, p.digest = res.Retired, res.Mem.Digest()
	return nil
}

// kernelKinds makes one kind per (machine, kernel) pair, building each
// image once per machine scale. The golden references are computed by
// finishKernels after set-up is timed.
func kernelKinds(b *bench, parent int, ks []kernel) ([]*kind, []*program, error) {
	built := map[string]*program{}
	var kinds []*kind
	var progs []*program
	for _, k := range ks {
		for _, m := range machines {
			key := fmt.Sprintf("%s*%d", k.name, m.scale)
			p := built[key]
			if p == nil {
				var err error
				if p, err = buildKernel(b.tr, parent, k, m.scale, b.rng); err != nil {
					return nil, nil, err
				}
				built[key] = p
				progs = append(progs, p)
			}
			kinds = append(kinds, kernelKind(m, p, k.seeded))
		}
	}
	return kinds, progs, nil
}

// finishKernels computes the golden references and sets each kind's
// work to the golden retired count.
func finishKernels(kinds []*kind, progs []*program) error {
	for _, p := range progs {
		if err := p.golden(); err != nil {
			return err
		}
	}
	for _, k := range kinds {
		k.work = float64(k.prog.retired)
	}
	return nil
}

// kernelKind runs p to completion on m through the Target API and
// checks the result against the workload's reference and the golden
// ISS.
func kernelKind(m machine, p *program, seeded bool) *kind {
	k := &kind{name: m.name + "/" + p.name, family: m.family, est: best, seeded: seeded, prog: p}
	k.run = func(tr *tracer, parent int, _ time.Time) (time.Duration, string, error) {
		t := m.target()
		var res *diag.Result
		d, err := tr.timed(m.family+".run", parent, func() error {
			var err error
			res, err = t.Run(p.img)
			return err
		})
		if err != nil {
			return 0, "", err
		}
		if !res.Done {
			return 0, "", fmt.Errorf("run stopped before the program halted")
		}
		k.observe(res)
		var dig uint64
		tr.timed("mem.digest", parent, func() error { dig = res.Mem.Digest(); return nil })
		if res.Retired != p.retired || dig != p.digest {
			return 0, "", fmt.Errorf("retired %d digest %016x, golden ISS %d %016x", res.Retired, dig, p.retired, p.digest)
		}
		if _, err := tr.timed("workloads.check", parent, func() error { return p.check(res.Mem) }); err != nil {
			return 0, "", err
		}
		return d, fmt.Sprintf("%d %d %016x", res.Cycles, res.Retired, dig), nil
	}
	return k
}

// simStats accumulates the simulated statistics of a kind's runs, for
// the per-layer rates of the traced run.
type simStats struct {
	cycles, retired          float64
	reuseHits, reuseMisses   float64
	l1dAccesses, l1dMisses   float64
	branches, mispredictions float64
}

func (k *kind) observe(res *diag.Result) {
	s := &k.sim
	s.cycles += float64(res.Cycles)
	s.retired += float64(res.Retired)
	if st := res.DiAG; st != nil {
		s.reuseHits += float64(st.ReuseHits)
		s.reuseMisses += float64(st.ReuseMisses)
		s.l1dAccesses += float64(st.L1D.Accesses)
		s.l1dMisses += float64(st.L1D.Misses)
	}
	if st := res.Baseline; st != nil {
		s.l1dAccesses += float64(st.L1D.Accesses)
		s.l1dMisses += float64(st.L1D.Misses)
		s.branches += float64(st.Branches)
		s.mispredictions += float64(st.Mispredicts)
	}
}
