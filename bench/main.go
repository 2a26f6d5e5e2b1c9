// Command bench is the LACeS benchmark: four fixed-work workloads over the
// census pipeline, the archive and index write side, and the serving tier,
// six end-to-end metrics per workload, and per-layer numbers from a traced
// run. See README.md for what each workload is for and how to read the output.
//
//	bash bench/run.sh                                  every workload, each in its own process
//	bash bench/run.sh -workload serve_mix -seed 3      one workload
//	bash bench/run.sh -workload census_v4_seq -trace 1 the traced run: per-layer metrics
//	bash bench/run.sh -compare A.jsonl B.jsonl         apply the bounds to two result sets
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// procStart anchors setup_s and every span: set-up is everything between
// process start and the first timed rep.
var procStart = now()

// options are the command-line settings shared by every workload.
type options struct {
	seed    int
	seconds int
	traced  bool
	smoke   bool
	outDir  string
}

// reps scales a workload's rep count, sized for runSeconds, to -seconds. The
// count is fixed before the first rep runs, so two runs with the same flags do
// the same work; it never drops below 3, the fewest reps with a middle one.
func (o options) reps(base int) int {
	if o.smoke {
		return 2
	}
	return max(3, int(math.Round(float64(base)*float64(o.seconds)/runSeconds)))
}

// workload is one benchmark scenario. Why it exists is in BENCHMARK.json and
// README.md; run builds its inputs from the seed, measures and checks.
type workload struct {
	name string
	run  func(o options, tr *tracer) (*result, error)
}

var workloads = []workload{
	{"census_v4_seq", runCensusV4Seq},
	{"census_v6_paper", runCensusV6Paper},
	{"ingest_60d", runIngest},
	{"serve_mix", runServe},
}

func main() {
	var o options
	name := flag.String("workload", "", "run one workload in this process (default: all, each in a child process)")
	flag.IntVar(&o.seed, "seed", 1, "chooses the census days measured and seeds the request schedule; the worlds are the shipped ones")
	flag.IntVar(&o.seconds, "seconds", runSeconds, "scales the fixed rep counts, which are sized for the default")
	trace := flag.Int("trace", 0, "1: traced run, reporting the per-layer metrics and writing the spans under -out")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny sizes (TestConfig, 2 reps, 6-day fixture, 2 passes of 50)")
	flag.StringVar(&o.outDir, "out", "bench/out", "directory for trace files")
	appendTo := flag.String("append", "", "append each workload's result to this JSON-lines result set")
	compare := flag.Bool("compare", false, "compare two result sets: -compare A.jsonl B.jsonl")
	flag.Parse()
	o.traced = *trace != 0

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result sets"))
		}
		ok, err := compareSets(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if o.seed < 1 || o.seconds < 1 || flag.NArg() != 0 {
		fatal(fmt.Errorf("usage: -seed and -seconds are at least 1 and there are no positional arguments"))
	}

	var ok bool
	var err error
	if *name == "" {
		ok, err = runAll(o, *appendTo)
	} else {
		ok, err = runOne(*name, o, *appendTo)
	}
	if err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runOne runs the named workload in this process, so that VmHWM at exit is
// that workload's peak and no other's.
func runOne(name string, o options, appendTo string) (bool, error) {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return false, fmt.Errorf("unknown workload %q", name)
	}
	// Two processors whatever the host has: the parallel census is sized
	// against the 2-core reference box, and the setting is part of the result.
	runtime.GOMAXPROCS(2)
	var tr *tracer
	if o.traced {
		tr = &tracer{}
	}
	res, err := wl.run(o, tr)
	if err != nil {
		return false, fmt.Errorf("%s: %w", name, err)
	}
	res.Workload, res.Seed, res.Traced, res.GoMaxProcs = name, o.seed, o.traced, runtime.GOMAXPROCS(0)
	if !o.traced {
		if res.Metrics["peak_rss_mb"], err = peakRSSMB(); err != nil {
			res.fail("peak_rss_mb: %v", err)
		}
	} else {
		path, err := tr.write(o.outDir, name)
		if err != nil {
			return false, err
		}
		fmt.Printf("trace: %d spans in %s\n", len(tr.spans), path)
	}
	if appendTo != "" {
		if err := appendResult(appendTo, res); err != nil {
			return false, err
		}
	}
	res.print(os.Stdout)
	return res.correct(), nil
}

// runAll runs every workload as a child process of this binary, one after the
// other, relays their output and sums up.
func runAll(o options, appendTo string) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	allOK := true
	attempted, failed := 0, 0
	for _, wl := range workloads {
		args := []string{"-workload", wl.name, "-seed", strconv.Itoa(o.seed), "-seconds", strconv.Itoa(o.seconds), "-out", o.outDir}
		if o.traced {
			args = append(args, "-trace", "1")
		}
		if o.smoke {
			args = append(args, "-smoke")
		}
		if appendTo != "" {
			args = append(args, "-append", appendTo)
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return false, err
		}
		if err := cmd.Start(); err != nil {
			return false, err
		}
		last, err := relay(os.Stdout, stdout)
		werr := cmd.Wait() // always reap the child, whatever the relay saw
		if err != nil {
			return false, err
		}
		var line struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
		}
		if jerr := json.Unmarshal([]byte(last), &line); jerr != nil || werr != nil || !line.Correct {
			fmt.Printf("!! %s did not pass (exit: %v)\n", wl.name, werr)
			allOK = false
		}
		attempted += line.Attempted
		failed += line.Failed
	}
	fmt.Printf("== all workloads: correct=%v attempted=%d failed=%d\n", allOK, attempted, failed)
	return allOK, nil
}

// relay copies r to w line by line and returns the last non-empty line.
func relay(w io.Writer, r io.Reader) (string, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	last := ""
	for sc.Scan() {
		if line := sc.Text(); strings.TrimSpace(line) != "" {
			last = line
		}
		fmt.Fprintln(w, sc.Text())
	}
	return last, sc.Err()
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// appendResult adds one result to a JSON-lines result set.
func appendResult(path string, res *result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
