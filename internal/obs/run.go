package obs

import (
	"io"
	"os"
)

// RunFlags are a command's observability flags: -trace, -trace-out,
// -cpuprofile and -memprofile.
type RunFlags struct {
	Trace      bool   // print the span tree to stderr at the end
	TraceOut   string // write a Chrome trace_event file (implies Trace)
	CPUProfile string // CPU profile with per-phase pprof labels
	MemProfile string // heap profile, written at the end
}

// Run is the observability of one command run: the tracer the command
// records into, and what Finish writes once the command is done.
type Run struct {
	// Tracer is nil unless tracing or CPU profiling is on, so the
	// default run stays on the untraced hot path and its output is
	// byte-identical with and without collection compiled in.
	Tracer *Tracer

	flags   RunFlags
	stopCPU func()
}

// Start begins a command run: it makes the tracer and starts the CPU
// profile the flags ask for.
func Start(f RunFlags) (*Run, error) {
	r := &Run{flags: f}
	if f.tracing() || f.CPUProfile != "" {
		// MemStats deltas only when a human will read the tree; pprof
		// labels always, so a CPU profile attributes samples to phases.
		r.Tracer = New(Config{MemStats: f.tracing(), Labels: true})
	}
	if f.CPUProfile != "" {
		stop, err := StartCPUProfile(f.CPUProfile)
		if err != nil {
			return nil, err
		}
		r.stopCPU = stop
	}
	return r, nil
}

func (f RunFlags) tracing() bool { return f.Trace || f.TraceOut != "" }

// Finish ends the run: the span tree on stderr, the Chrome trace file,
// the heap profile, and last the CPU profile's stop. A command calls it
// on every return path once Start succeeded. It returns the first
// write error; the CPU profile stops in any case.
func (r *Run) Finish(stderr io.Writer) error {
	if r.stopCPU != nil {
		defer r.stopCPU()
	}
	if r.flags.tracing() {
		WriteTree(stderr, r.Tracer)
	}
	if r.flags.TraceOut != "" {
		f, err := os.Create(r.flags.TraceOut)
		if err == nil {
			err = WriteChromeTrace(f, r.Tracer)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return err
		}
	}
	if r.flags.MemProfile != "" {
		return WriteHeapProfile(r.flags.MemProfile)
	}
	return nil
}
