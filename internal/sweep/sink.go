package sweep

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// CSVSink streams results as CSV rows, header first. All numeric formatting
// is deterministic, so two runs of the same spec produce byte-identical
// output up to the elapsed_ms column (wall time is inherently noisy).
//
// Every row is flushed to the underlying writer as soon as it is written:
// the sweep scheduler emits job i's aggregate as soon as jobs 0..i are done
// (incremental delay, in the enumeration-complexity sense), and a row
// buffered inside csv.Writer until sweep end would silently undo that
// guarantee for CSV consumers.
type CSVSink struct {
	w      *csv.Writer
	header bool
	// Elapsed controls whether the elapsed_ms column is emitted; tests and
	// golden files turn it off.
	Elapsed bool
}

// NewCSVSink returns a CSV sink writing to w, including the elapsed_ms
// column.
func NewCSVSink(w io.Writer) *CSVSink {
	return &CSVSink{w: csv.NewWriter(w), Elapsed: true}
}

// Write implements Sink.
func (s *CSVSink) Write(r *Result) error {
	if !s.header {
		s.header = true
		cols := []string{
			"family", "n", "m", "k", "eps", "engine",
			"trials", "reps", "rounds", "rejects", "reject_rate",
			"avg_messages", "avg_bits", "max_message_bits", "max_seqs",
		}
		if s.Elapsed {
			cols = append(cols, "elapsed_ms")
		}
		if err := s.w.Write(cols); err != nil {
			return err
		}
	}
	row := []string{
		r.Graph.Family,
		strconv.Itoa(r.N),
		strconv.Itoa(r.M),
		strconv.Itoa(r.K),
		strconv.FormatFloat(r.Eps, 'g', -1, 64),
		string(r.Engine),
		strconv.Itoa(r.Trials),
		strconv.Itoa(r.Reps),
		strconv.Itoa(r.Rounds),
		strconv.Itoa(r.Rejects),
		strconv.FormatFloat(r.RejectRate, 'f', 3, 64),
		strconv.FormatFloat(r.AvgMessages, 'f', 1, 64),
		strconv.FormatFloat(r.AvgBits, 'f', 1, 64),
		strconv.Itoa(r.MaxMessageBits),
		strconv.Itoa(r.MaxSeqs),
	}
	if s.Elapsed {
		row = append(row, fmt.Sprintf("%.2f", float64(r.Elapsed.Microseconds())/1000))
	}
	if err := s.w.Write(row); err != nil {
		return err
	}
	s.w.Flush()
	return s.w.Error()
}

// Flush implements Sink.
func (s *CSVSink) Flush() error {
	s.w.Flush()
	return s.w.Error()
}

// JSONSink streams results as JSON Lines (one object per result).
type JSONSink struct {
	enc *json.Encoder
}

// NewJSONSink returns a JSON-lines sink writing to w.
func NewJSONSink(w io.Writer) *JSONSink {
	return &JSONSink{enc: json.NewEncoder(w)}
}

// Write implements Sink.
func (s *JSONSink) Write(r *Result) error { return s.enc.Encode(r) }

// Flush implements Sink.
func (s *JSONSink) Flush() error { return nil }

// FuncSink adapts a function to the Sink interface (used by tests and by
// callers that aggregate in memory).
type FuncSink func(r *Result) error

// Write implements Sink.
func (f FuncSink) Write(r *Result) error { return f(r) }

// Flush implements Sink.
func (f FuncSink) Flush() error { return nil }
