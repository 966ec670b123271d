package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"repro/internal/mpi"
)

// The runtime bench times the message path of internal/mpi on its own:
// point-to-point ping-pong latency and bandwidth, the collectives the
// multiplication algorithms are built from across communicator sizes,
// and the blocking against the nonblocking shift primitive. Every
// sample runs in a fresh world — warm-up operation, barrier, then a
// timed batch on rank 0 — and a series reports the median, p10 and p90
// per-operation time over its samples, with allocations per operation
// summed over the world.

// RuntimeEnv records where a runtime bench ran.
type RuntimeEnv struct {
	Commit     string `json:"commit"` // empty outside a git checkout
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// RuntimeSeries is one measured operation at one communicator size.
type RuntimeSeries struct {
	Op    string `json:"op"`
	P     int    `json:"p"`
	Bytes int    `json:"bytes"` // payload per message (ping-pong, shift) or per rank (collectives)
	Unit  string `json:"unit"`
	// Median, P10 and P90 summarize the per-operation samples; for a
	// bandwidth series they are GB/s, so P10 is the slow end.
	Median float64 `json:"median"`
	P10    float64 `json:"p10"`
	P90    float64 `json:"p90"`
	N      int     `json:"n"`
	Iters  int     `json:"iters"` // operations per sample
	// AllocsPerOp and AllocBytesPerOp are medians over the samples of
	// the world's heap allocations per operation.
	AllocsPerOp     float64 `json:"allocs_per_op"`
	AllocBytesPerOp float64 `json:"alloc_bytes_per_op"`
}

type runtimeRecord struct {
	Env     RuntimeEnv      `json:"env"`
	Samples int             `json:"samples"`
	Results []RuntimeSeries `json:"results"`
}

// runtimeSizes are the communicator sizes of the collective series.
var runtimeSizes = []int{2, 4, 8, 16, 32, 64}

const (
	// runtimeSamples is the number of samples per series.
	runtimeSamples = 11
	sampleTarget   = 50 * time.Millisecond
	// linkBudget caps the distinct (src, dst, tag) links one sample may
	// touch, so a runtime that keeps per-link state for the life of a
	// world stays within a small memory footprint.
	linkBudget = 4096
	maxIters   = 5000
)

// runtimeOp is one benchmarked operation: op runs once on every rank;
// links is the number of distinct links one call touches.
type runtimeOp struct {
	name  string
	p     int
	bytes int
	links int
	op    func(c *mpi.Comm)
	// perOp converts a per-operation time into the reported value.
	unit  string
	perOp func(d time.Duration) float64
}

func usPerOp(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// sampleOnce runs one fresh world: a warm-up call, a barrier, then
// iters timed calls on rank 0. It returns rank 0's time per call and
// the world's allocations per call.
func sampleOnce(o runtimeOp, iters int) (time.Duration, float64, float64, error) {
	samples := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	read := func() (float64, float64) {
		metrics.Read(samples)
		return float64(samples[0].Value.Uint64()), float64(samples[1].Value.Uint64())
	}
	var t0, t1 time.Time
	var n0, b0, n1, b1 float64
	_, err := mpi.Run(o.p, func(c *mpi.Comm) {
		o.op(c)
		c.Barrier()
		if c.Rank() == 0 {
			n0, b0 = read()
			t0 = time.Now()
		}
		for i := 0; i < iters; i++ {
			o.op(c)
		}
		if c.Rank() == 0 {
			t1 = time.Now()
			n1, b1 = read()
		}
	})
	k := float64(iters)
	return t1.Sub(t0) / time.Duration(iters), (n1 - n0) / k, (b1 - b0) / k, err
}

// measureSeries sizes the batch from a probe and takes runtimeSamples
// samples of it.
func measureSeries(o runtimeOp) (RuntimeSeries, error) {
	probe, _, _, err := sampleOnce(o, 2)
	if err != nil {
		return RuntimeSeries{}, err
	}
	iters := int(sampleTarget / max(probe, time.Microsecond))
	iters = min(max(iters, 2), maxIters, max(2, linkBudget/max(o.links, 1)))
	vals := make([]float64, 0, runtimeSamples)
	allocs := make([]float64, 0, runtimeSamples)
	allocB := make([]float64, 0, runtimeSamples)
	for s := 0; s < runtimeSamples; s++ {
		d, n, b, err := sampleOnce(o, iters)
		if err != nil {
			return RuntimeSeries{}, err
		}
		vals = append(vals, o.perOp(d))
		allocs = append(allocs, n)
		allocB = append(allocB, b)
	}
	return RuntimeSeries{
		Op: o.name, P: o.p, Bytes: o.bytes, Unit: o.unit,
		Median: quantile(vals, 0.5), P10: quantile(vals, 0.1), P90: quantile(vals, 0.9),
		N: runtimeSamples, Iters: iters,
		AllocsPerOp: quantile(allocs, 0.5), AllocBytesPerOp: quantile(allocB, 0.5),
	}, nil
}

// quantile interpolates the q-quantile of xs between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// runtimeOps lists every series of the bench.
func runtimeOps() []runtimeOp {
	const pingLen, bwLen, collLen, a2aLen, shiftLen = 1, 1 << 17, 256, 64, 8
	pingPong := func(n int) func(c *mpi.Comm) {
		buf := make([]float64, n)
		return func(c *mpi.Comm) {
			if c.Rank() == 0 {
				c.Send(1, 0, buf)
				c.Recv(1, 0)
			} else {
				c.Recv(0, 0)
				c.Send(0, 0, buf)
			}
		}
	}
	halfRTT := func(d time.Duration) float64 { return usPerOp(d) / 2 }
	ops := []runtimeOp{
		{name: "pingpong_latency", p: 2, bytes: 8 * pingLen, links: 2, op: pingPong(pingLen), unit: "us", perOp: halfRTT},
		{name: "pingpong_bandwidth", p: 2, bytes: 8 * bwLen, links: 2, op: pingPong(bwLen), unit: "GB/s",
			perOp: func(d time.Duration) float64 { return 2 * 8 * bwLen / d.Seconds() / 1e9 }},
	}
	for _, p := range runtimeSizes {
		logp := int(math.Ceil(math.Log2(float64(p))))
		counts := make([]int, p)
		for i := range counts {
			counts[i] = collLen
		}
		send := make([]float64, collLen)
		rsSend := make([]float64, collLen*p)
		a2a := make([][]float64, p)
		for i := range a2a {
			a2a[i] = make([]float64, a2aLen)
		}
		ops = append(ops,
			runtimeOp{name: "barrier", p: p, links: p * logp, unit: "us", perOp: usPerOp,
				op: func(c *mpi.Comm) { c.Barrier() }},
			runtimeOp{name: "allgatherv", p: p, bytes: 8 * collLen, links: p, unit: "us", perOp: usPerOp,
				op: func(c *mpi.Comm) { c.Allgatherv(send, counts) }},
			runtimeOp{name: "reduce_scatter", p: p, bytes: 8 * collLen * p, links: p, unit: "us", perOp: usPerOp,
				op: func(c *mpi.Comm) { c.ReduceScatter(rsSend, counts) }},
			runtimeOp{name: "alltoallv", p: p, bytes: 8 * a2aLen * p, links: p * (p - 1), unit: "us", perOp: usPerOp,
				op: func(c *mpi.Comm) { c.Alltoallv(a2a) }},
		)
	}
	shift := make([]float64, shiftLen)
	ring := func(c *mpi.Comm) (int, int) { return (c.Rank() + 1) % c.Size(), (c.Rank() + c.Size() - 1) % c.Size() }
	ops = append(ops,
		runtimeOp{name: "sendrecv", p: 8, bytes: 8 * shiftLen, links: 8, unit: "us", perOp: usPerOp,
			op: func(c *mpi.Comm) {
				dst, src := ring(c)
				c.Sendrecv(dst, src, 0, shift)
			}},
		runtimeOp{name: "isendrecv_wait", p: 8, bytes: 8 * shiftLen, links: 8, unit: "us", perOp: usPerOp,
			op: func(c *mpi.Comm) {
				dst, src := ring(c)
				c.Isendrecv(dst, src, 0, shift).Wait()
			}},
	)
	return ops
}

// runtimeEnv describes the machine and the checkout being measured.
func runtimeEnv() RuntimeEnv {
	env := RuntimeEnv{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
	}
	// A "-dirty" suffix marks uncommitted changes on top of the commit.
	if out, err := exec.Command("git", "describe", "--always", "--dirty", "--abbrev=40").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(l, "model name"); ok {
				env.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return env
}

// RealRuntime runs the runtime bench, prints a table and, when out is
// non-empty, writes the record as JSON.
func RealRuntime(w io.Writer, out string) error {
	rec := runtimeRecord{Env: runtimeEnv(), Samples: runtimeSamples}
	fmt.Fprintf(w, "# internal/mpi message path: median [p10, p90] over %d fresh-world samples\n", runtimeSamples)
	fmt.Fprintf(w, "%-20s %3s %9s %6s %11s %23s %10s %12s\n", "op", "p", "bytes", "iters", "median", "[p10, p90]", "allocs/op", "B/op")
	for _, o := range runtimeOps() {
		s, err := measureSeries(o)
		if err != nil {
			return fmt.Errorf("%s p=%d: %w", o.name, o.p, err)
		}
		rec.Results = append(rec.Results, s)
		fmt.Fprintf(w, "%-20s %3d %9d %6d %7.2f %-4s [%9.2f, %9.2f] %10.1f %12.0f\n",
			s.Op, s.P, s.Bytes, s.Iters, s.Median, s.Unit, s.P10, s.P90, s.AllocsPerOp, s.AllocBytesPerOp)
	}
	if out == "" {
		return nil
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", out)
	return nil
}
