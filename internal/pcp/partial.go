package pcp

import (
	"fmt"
	"strings"
)

// PartialError reports a fetch that was answered from an incomplete set
// of cluster nodes: the values that could be gathered are valid (and
// returned alongside this error), but the named nodes contributed
// nothing. Per-value, the missing nodes' entries carry StatusNodeDown.
//
// It is the typed degradation contract of the federated tier: a
// scatter-gather over a thousand nodes with three of them down returns
// an answer plus a *PartialError naming exactly those three, never a
// bare failure. Callers detect it with errors.As and decide whether a
// partial answer is acceptable.
type PartialError struct {
	// Missing lists the node IDs that contributed no data, sorted.
	Missing []string
	// Cause is a representative underlying failure, for diagnostics.
	Cause string
}

func (e *PartialError) Error() string {
	msg := fmt.Sprintf("pcp: partial result: %d node(s) missing: %s",
		len(e.Missing), strings.Join(e.Missing, ","))
	if e.Cause != "" {
		msg += " (" + e.Cause + ")"
	}
	return msg
}

// MaxPartialMissing bounds the missing-node list in a partial-result
// PDU, like the other implausibility guards in the decoders.
const MaxPartialMissing = MaxPDUBytes / 8

// AppendPartialResp appends an encoded partial fetch response to dst:
// the missing-node list and cause, followed by the ordinary fetch
// response body. It is the wire form of a FetchResult paired with a
// *PartialError.
func AppendPartialResp(dst []byte, res FetchResult, missing []string, cause string) []byte {
	e := encoder{buf: dst}
	e.u32(uint32(len(missing)))
	for _, m := range missing {
		e.str(m)
	}
	e.str(cause)
	e.buf = AppendFetchResp(e.buf, res)
	return e.buf
}

// DecodePartialResp decodes a partial fetch response into res (reusing
// res.Values' backing array) and returns the reconstructed
// *PartialError. res is left zeroed on a decode error.
func DecodePartialResp(b []byte, res *FetchResult) (*PartialError, error) {
	d := decoder{buf: b}
	n := d.u32()
	if n > MaxPartialMissing {
		*res = FetchResult{}
		return nil, fmt.Errorf("%w: implausible missing-node count %d", ErrProtocol, n)
	}
	pe := &PartialError{Missing: make([]string, 0, n)}
	for i := uint32(0); i < n; i++ {
		pe.Missing = append(pe.Missing, d.str())
	}
	pe.Cause = d.str()
	if d.err != nil {
		*res = FetchResult{}
		return nil, d.err
	}
	if err := DecodeFetchRespInto(d.buf, res); err != nil {
		return nil, err
	}
	return pe, nil
}
