// Trace record/replay: a compact on-disk request trace, varint-delta
// encoded like internal/archive's sample volumes. Arrival timestamps are
// nondecreasing in issue order, so each row stores only the uvarint
// delta from the previous row; cohort, class, size, latency and status
// follow as uvarints. A recorded run re-encodes to the same
// bytes after a read round trip, and Replay over it reproduces the run
// bit-exact.
package workload

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

func floatBits(f float64) uint64 { return math.Float64bits(f) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }

// ErrTrace indicates a corrupt serialized trace.
var ErrTrace = errors.New("workload: bad trace format")

// traceMagic starts a serialized trace.
const traceMagic = "PMWT1\n"

// Decoder sanity bounds: large enough for any real run, small enough
// that hostile counts cannot drive huge allocations.
const (
	traceMaxName    = 1 << 12
	traceMaxCohorts = 1 << 16
	traceMaxSize    = 1 << 20
)

// Row is one issued request and its outcome. Seq is the in-memory issue
// order; it is implicit on disk — rows are stored in Seq order.
type Row struct {
	T      int64 // virtual arrival, ns
	Seq    int64
	Cohort uint32
	Class  Class
	Size   uint32
	Lat    int64 // ns, measured from scheduled arrival
	Status uint8 // 0 ok, 1 error
}

// Trace is a recorded run: identity (spec name, seed, mult, horizon and
// cohort names, enough to validate a replay target) plus the rows.
type Trace struct {
	Spec    string
	Seed    uint64
	Mult    float64
	Horizon int64
	Cohorts []string
	Rows    []Row
}

// WriteTo serializes the trace.
func (tr *Trace) WriteTo(w io.Writer) (int64, error) {
	buf := make([]byte, 0, len(traceMagic)+64+8*len(tr.Rows))
	buf = append(buf, traceMagic...)
	buf = appendString(buf, tr.Spec)
	buf = binary.AppendUvarint(buf, tr.Seed)
	buf = binary.AppendUvarint(buf, floatBits(tr.Mult))
	buf = binary.AppendVarint(buf, tr.Horizon)
	buf = binary.AppendUvarint(buf, uint64(len(tr.Cohorts)))
	for _, name := range tr.Cohorts {
		buf = appendString(buf, name)
	}
	buf = binary.AppendUvarint(buf, uint64(len(tr.Rows)))
	prevT := int64(0)
	for i := range tr.Rows {
		r := &tr.Rows[i]
		if r.T < prevT {
			return 0, fmt.Errorf("workload: trace rows out of order at %d (%d after %d)", i, r.T, prevT)
		}
		buf = binary.AppendUvarint(buf, uint64(r.T-prevT))
		prevT = r.T
		buf = binary.AppendUvarint(buf, uint64(r.Cohort))
		buf = binary.AppendUvarint(buf, uint64(r.Class))
		buf = binary.AppendUvarint(buf, uint64(r.Size))
		buf = binary.AppendUvarint(buf, uint64(r.Lat))
		buf = binary.AppendUvarint(buf, uint64(r.Status))
	}
	n, err := w.Write(buf)
	return int64(n), err
}

// ReadTrace deserializes a trace written by WriteTo. Corrupt input
// yields an error wrapping ErrTrace, never a panic — FuzzReadTrace
// holds it to that.
func ReadTrace(r io.Reader) (*Trace, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(data) < len(traceMagic) || string(data[:len(traceMagic)]) != traceMagic {
		return nil, fmt.Errorf("%w: missing magic", ErrTrace)
	}
	d := &traceDecoder{buf: data[len(traceMagic):]}
	tr := &Trace{}
	tr.Spec = d.str(traceMaxName, "spec name")
	tr.Seed = d.uv("seed")
	tr.Mult = bitsFloat(d.uv("mult"))
	tr.Horizon = d.sv("horizon")
	nCohorts := d.uv("cohort count")
	if d.err == nil && nCohorts > traceMaxCohorts {
		return nil, fmt.Errorf("%w: implausible cohort count %d", ErrTrace, nCohorts)
	}
	for i := uint64(0); i < nCohorts && d.err == nil; i++ {
		tr.Cohorts = append(tr.Cohorts, d.str(traceMaxName, "cohort name"))
	}
	nRows := d.uv("row count")
	if d.err != nil {
		return nil, d.err
	}
	// Each row costs at least 6 encoded bytes, so the count is bounded
	// by the remaining input.
	if nRows > uint64(len(d.buf)) {
		return nil, fmt.Errorf("%w: row count %d exceeds remaining input", ErrTrace, nRows)
	}
	tr.Rows = make([]Row, 0, nRows)
	prevT := int64(0)
	for i := uint64(0); i < nRows; i++ {
		var row Row
		dt := d.uv("row dt")
		row.T = prevT + int64(dt)
		if row.T < prevT {
			return nil, fmt.Errorf("%w: timestamp overflow at row %d", ErrTrace, i)
		}
		prevT = row.T
		row.Seq = int64(i)
		cohort := d.uv("row cohort")
		class := d.uv("row class")
		size := d.uv("row size")
		lat := d.uv("row latency")
		status := d.uv("row status")
		if d.err != nil {
			return nil, d.err
		}
		if cohort >= uint64(len(tr.Cohorts)) {
			return nil, fmt.Errorf("%w: row %d cohort %d of %d", ErrTrace, i, cohort, len(tr.Cohorts))
		}
		if class >= uint64(NumClasses) {
			return nil, fmt.Errorf("%w: row %d class %d", ErrTrace, i, class)
		}
		if size > traceMaxSize {
			return nil, fmt.Errorf("%w: row %d size %d", ErrTrace, i, size)
		}
		if lat > 1<<62 {
			return nil, fmt.Errorf("%w: row %d latency %d", ErrTrace, i, lat)
		}
		if status > 1 {
			return nil, fmt.Errorf("%w: row %d status %d", ErrTrace, i, status)
		}
		row.Cohort = uint32(cohort)
		row.Class = Class(class)
		row.Size = uint32(size)
		row.Lat = int64(lat)
		row.Status = uint8(status)
		tr.Rows = append(tr.Rows, row)
	}
	return tr, nil
}

// WriteFile serializes the trace to path.
func (tr *Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := tr.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadTraceFile reads a trace from path.
func ReadTraceFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := ReadTrace(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tr, nil
}

type traceDecoder struct {
	buf []byte
	err error
}

func (d *traceDecoder) uv(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.err = fmt.Errorf("%w: truncated %s", ErrTrace, what)
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *traceDecoder) sv(what string) int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.err = fmt.Errorf("%w: truncated %s", ErrTrace, what)
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *traceDecoder) str(maxLen uint64, what string) string {
	ln := d.uv(what + " length")
	if d.err != nil {
		return ""
	}
	if ln > maxLen {
		d.err = fmt.Errorf("%w: %s length %d", ErrTrace, what, ln)
		return ""
	}
	if uint64(len(d.buf)) < ln {
		d.err = fmt.Errorf("%w: truncated %s", ErrTrace, what)
		return ""
	}
	s := string(d.buf[:ln])
	d.buf = d.buf[ln:]
	return s
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}
