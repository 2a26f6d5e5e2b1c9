package orchestrator

type testOptions struct {
	MissingWorkers map[string]bool // want `one census day: map named MissingWorkers`
	BatchSize      int             // want `one wire endpoint: name BatchSize — the batch size is a constant`
}

type testMask struct {
	MissingWorkers uint64
}

func (o testOptions) dumpFlight() {} // want `one wire endpoint: name dumpFlight`

func CountParticipants() int { return 0 } // want `one census day: name CountParticipants`

func MergeCells() {} // want `one stage loop: name MergeCells`
