// Package client implements the LACeS CLI component (§4.2.1): it creates
// a measurement definition, submits it to the Orchestrator, and collects
// the aggregated result stream into a single output — the paper's "at the
// CLI, results are stored as a single file".
package client

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"net"
	"net/netip"
	"slices"
	"strconv"
	"strings"

	"github.com/laces-project/laces/internal/obs"
	"github.com/laces-project/laces/internal/wire"
)

// Client submits measurements to an Orchestrator.
type Client struct {
	// Addr is the Orchestrator's TCP address.
	Addr string
	// Dialer allows tests to intercept connections; nil uses net.Dialer.
	Dialer func(ctx context.Context, addr string) (net.Conn, error)
	// Obs, when set, makes the CLI the origin of a distributed trace: it
	// mints the trace context carried on the Run frame and ingests the
	// assembled cross-process spans handed back on Complete, so after
	// Run the registry holds the full CLI+orchestrator+workers trace.
	Obs *obs.Registry
}

// Outcome summarises a finished measurement.
type Outcome struct {
	Results []wire.Result
	Workers int
	// Skipped counts targets the orchestrator's responsible-probing
	// ledger refused to stream (opt-out or budget).
	Skipped int64
}

// ReceiverSets groups results by target and returns the distinct receiving
// worker set per target — the classification input of §2.2.
func (o *Outcome) ReceiverSets() map[netip.Addr]map[int]bool {
	out := make(map[netip.Addr]map[int]bool)
	for _, r := range o.Results {
		s, ok := out[r.Target]
		if !ok {
			s = make(map[int]bool)
			out[r.Target] = s
		}
		s[r.RxWorker] = true
	}
	return out
}

// Candidates returns the targets whose replies reached two or more
// workers, in the order of their text form — the order the CLI has always
// listed them in.
func (o *Outcome) Candidates() []netip.Addr {
	var out []netip.Addr
	for t, s := range o.ReceiverSets() {
		if len(s) >= 2 {
			out = append(out, t)
		}
	}
	slices.SortFunc(out, func(a, b netip.Addr) int { return strings.Compare(a.String(), b.String()) })
	return out
}

// Run submits the measurement and blocks until completion, invoking
// onResult (if non-nil) per streamed result.
func (c *Client) Run(ctx context.Context, def wire.MeasurementDef, targets []netip.Addr, onResult func(wire.Result)) (*Outcome, error) {
	conn, err := new(wire.Endpoint).Dial(ctx, c.Dialer, c.Addr)
	if err != nil {
		return nil, fmt.Errorf("client: dialing orchestrator: %w", err)
	}
	defer conn.Close()

	// Mint the root of the cross-process trace (no-op on a nil
	// registry): its context rides the Hello and Run frames, the
	// orchestrator and workers parent their spans on it, and the
	// assembled spans come back on Complete.
	if c.Obs != nil && c.Obs.TraceComponent() == "" {
		c.Obs.SetTraceComponent("cli")
	}
	root := c.Obs.StartTrace("measure")
	defer root.End() // error paths; the Complete path ends it first

	if err := conn.Write(wire.MsgHello, wire.Hello{Role: "cli", Name: "laces-cli", Trace: root.Context()}); err != nil {
		return nil, err
	}
	if err := conn.Write(wire.MsgRun, wire.Run{Def: def, Targets: targets, Trace: root.Context()}); err != nil {
		return nil, err
	}

	out := &Outcome{}
	for {
		typ, raw, err := conn.Read()
		if err != nil {
			return nil, fmt.Errorf("client: reading results: %w", err)
		}
		switch typ {
		case wire.MsgResult:
			res, err := wire.Decode[wire.Result](raw)
			if err != nil {
				return nil, err
			}
			out.Results = append(out.Results, res)
			if onResult != nil {
				onResult(res)
			}
		case wire.MsgComplete:
			comp, err := wire.Decode[wire.Complete](raw)
			if err != nil {
				return nil, err
			}
			out.Workers = comp.Workers
			out.Skipped = comp.Skipped
			root.SetAttr("results", strconv.FormatInt(comp.Results, 10))
			root.SetAttr("workers", strconv.Itoa(comp.Workers))
			root.End()
			c.Obs.IngestTraceSpans(comp.TraceSpans)
			return out, nil
		case wire.MsgError:
			em, _ := wire.Decode[wire.ErrorMsg](raw)
			return nil, fmt.Errorf("client: orchestrator error: %s", em.Text)
		default:
			return nil, fmt.Errorf("client: unexpected frame %v", typ)
		}
	}
}

// WriteCSV stores the outcome as the single result file of §4.2.2.
func (o *Outcome) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"target", "tx_worker", "rx_worker", "rtt_us"}); err != nil {
		return err
	}
	for _, r := range o.Results {
		rec := []string{r.Target.String(), strconv.Itoa(r.TxWorker), strconv.Itoa(r.RxWorker),
			strconv.FormatInt(r.RTTMicros, 10)}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
