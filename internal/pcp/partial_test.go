package pcp

import (
	"errors"
	"reflect"
	"testing"
)

func TestPartialRespRoundTrip(t *testing.T) {
	res := FetchResult{
		Timestamp: 12345,
		Values: []FetchValue{
			{PMID: 1, Status: StatusOK, Value: 42},
			{PMID: 2, Status: StatusNodeDown},
			{PMID: 3, Status: StatusOK, Value: 7},
		},
	}
	missing := []string{"node003", "node017"}
	b := AppendPartialResp(nil, res, missing, "node003: connection refused")

	var got FetchResult
	pe, err := DecodePartialResp(b, &got)
	if err != nil {
		t.Fatalf("DecodePartialResp: %v", err)
	}
	if !reflect.DeepEqual(got, res) {
		t.Errorf("result round trip: got %+v want %+v", got, res)
	}
	if !reflect.DeepEqual(pe.Missing, missing) {
		t.Errorf("missing round trip: got %v want %v", pe.Missing, missing)
	}
	if pe.Cause != "node003: connection refused" {
		t.Errorf("cause round trip: got %q", pe.Cause)
	}
	var asPE *PartialError
	if !errors.As(error(pe), &asPE) {
		t.Errorf("PartialError does not satisfy errors.As")
	}
}

func TestPartialRespEmptyMissing(t *testing.T) {
	res := FetchResult{Timestamp: 1, Values: []FetchValue{{PMID: 1, Status: StatusOK, Value: 9}}}
	b := AppendPartialResp(nil, res, nil, "")
	var got FetchResult
	pe, err := DecodePartialResp(b, &got)
	if err != nil {
		t.Fatalf("DecodePartialResp: %v", err)
	}
	if len(pe.Missing) != 0 || pe.Cause != "" {
		t.Errorf("unexpected partial error contents: %+v", pe)
	}
}

func TestPartialRespTruncated(t *testing.T) {
	b := AppendPartialResp(nil, FetchResult{Timestamp: 5, Values: []FetchValue{{PMID: 1}}}, []string{"n0"}, "x")
	for cut := 0; cut < len(b); cut++ {
		var got FetchResult
		if _, err := DecodePartialResp(b[:cut], &got); err == nil {
			t.Fatalf("truncation at %d decoded cleanly", cut)
		}
	}
}
