package manycast

import (
	"reflect"
	"testing"
)

// TestRunParallelByteIdentical: the sharded target loop must reproduce the
// sequential observations, order included, at every worker count.
func TestRunParallelByteIdentical(t *testing.T) {
	d := tangled(t)
	opts := baseOpts()
	opts.Parallelism = 1
	seq, err := Run(testWorld, d, testHL, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 3, 7, 16} {
		opts.Parallelism = workers
		par, err := Run(testWorld, d, testHL, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq.Observations, par.Observations) {
			t.Fatalf("parallelism=%d: observations diverge from sequential run", workers)
		}
		if seq.ProbesSent != par.ProbesSent {
			t.Fatalf("parallelism=%d: probes %d vs sequential %d", workers, par.ProbesSent, seq.ProbesSent)
		}
		if seq.Duration != par.Duration || seq.Workers != par.Workers {
			t.Fatalf("parallelism=%d: metadata diverges", workers)
		}
	}
}

// TestRunParallelWithMissingWorkers covers the sharded loop interacting
// with the failure-awareness path.
func TestRunParallelWithMissingWorkers(t *testing.T) {
	d := tangled(t)
	opts := baseOpts()
	opts.MissingWorkers = 1<<2 | 1<<17
	opts.Parallelism = 1
	seq, err := Run(testWorld, d, testHL, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallelism = 8
	par, err := Run(testWorld, d, testHL, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Observations, par.Observations) || seq.ProbesSent != par.ProbesSent {
		t.Fatal("parallel degraded run diverges from sequential")
	}
}

// TestResultWorkersIgnoresBogusMissingEntries: mask bits beyond the
// deployment's sites do not reduce the participant count.
func TestResultWorkersIgnoresBogusMissingEntries(t *testing.T) {
	d := tangled(t)
	opts := baseOpts()
	opts.MissingWorkers = 1<<40 | 1<<63
	res, err := Run(testWorld, d, testHL, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != d.NumSites() {
		t.Fatalf("workers = %d, want full %d (bogus entries must not count)", res.Workers, d.NumSites())
	}
}
