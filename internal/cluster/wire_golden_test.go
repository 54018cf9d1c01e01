package cluster_test

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"papimc/internal/cluster"
	"papimc/internal/pcp"
	"papimc/internal/pmproxy"
	"papimc/internal/simtime"
	"papimc/internal/testutil"
)

var update = flag.Bool("update", false, "rewrite golden files")

// wireStep is one scripted request: a PDU type and a raw payload.
type wireStep struct {
	name    string
	typ     uint8
	payload []byte
}

// wireScript is the fixed session every tier is played at every
// version: well-formed requests of each kind, then the malformed and
// unknown ones whose error replies must not drift either.
func wireScript() []wireStep {
	good := pcp.AppendFetchReq(nil, []uint32{1, 3, 99})
	return []wireStep{
		{"names", pcp.PDUNamesReq, nil},
		{"fetch", pcp.PDUFetchReq, good},
		{"fetch-truncated", pcp.PDUFetchReq, good[:len(good)-4]},
		{"fetch-all", pcp.PDUFetchAllReq, nil},
		{"fetch-batch", pcp.PDUFetchBatchReq, pcp.AppendFetchBatchReq(nil, [][]uint32{{1, 2}, {4}, {1, 2}})},
		{"unknown-99", 99, []byte{0xde, 0xad}},
		{"version-malformed", pcp.PDUVersionReq, []byte{0, 3}},
	}
}

// wireFrame builds one request frame in the framing of the negotiated
// version: plain below Version2, tagged at Version2, wide at Version3.
func wireFrame(version uint32, typ uint8, tag, tenant uint32, payload []byte) []byte {
	var b bytes.Buffer
	var err error
	switch {
	case version >= pcp.Version3:
		err = pcp.WriteWidePDU(&b, typ, tag, tenant, payload)
	case version >= pcp.Version2:
		err = pcp.WriteTaggedPDU(&b, typ, tag, payload)
	default:
		err = pcp.WritePDU(&b, typ, payload)
	}
	if err != nil {
		panic(err)
	}
	return b.Bytes()
}

// readWireFrame reads one whole reply frame — header of hdrLen bytes
// whose first four are the big-endian payload length — by hand, so the
// transcript does not depend on the codec under test.
func readWireFrame(conn net.Conn, hdrLen int) ([]byte, error) {
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	frame := make([]byte, hdrLen)
	if _, err := io.ReadFull(conn, frame); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(frame[:4])
	if n > pcp.MaxPDUBytes {
		return nil, fmt.Errorf("reply claims %d payload bytes", n)
	}
	frame = append(frame, make([]byte, n)...)
	if _, err := io.ReadFull(conn, frame[hdrLen:]); err != nil {
		return nil, err
	}
	return frame, nil
}

// playWireSession plays the scripted session against addr with the
// version request capped at maxVersion and returns the transcript of
// every byte the server sent, one labelled hex line per reply.
func playWireSession(t *testing.T, addr string, maxVersion uint32) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var out bytes.Buffer
	record := func(label string, b []byte) { fmt.Fprintf(&out, "%s: %s\n", label, hex.EncodeToString(b)) }

	if _, err := conn.Write([]byte(pcp.Magic)); err != nil {
		t.Fatal(err)
	}
	echo := make([]byte, len(pcp.Magic))
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(conn, echo); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	record("handshake", echo)

	if _, err := conn.Write(wireFrame(pcp.Version1, pcp.PDUVersionReq, 0, 0, pcp.AppendVersion(nil, maxVersion))); err != nil {
		t.Fatal(err)
	}
	reply, err := readWireFrame(conn, 5)
	if err != nil {
		t.Fatalf("version exchange: %v", err)
	}
	record("version", reply)

	hdrLen := 5
	switch {
	case maxVersion >= pcp.Version3:
		hdrLen = 13
	case maxVersion >= pcp.Version2:
		hdrLen = 9
	}
	for i, st := range wireScript() {
		tag, tenant := uint32(0x100+i), uint32(7)
		if _, err := conn.Write(wireFrame(maxVersion, st.typ, tag, tenant, st.payload)); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		reply, err := readWireFrame(conn, hdrLen)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		record(st.name, reply)
	}
	return out.Bytes()
}

// TestWireGolden pins the bytes each serving tier sends, at every
// protocol version, against transcripts recorded before the tiers were
// moved onto the shared pcp.Server: the refactor's "same wire bytes"
// (including the proxy's "unknown PDU type 6" for FetchAll) is checked
// here rather than asserted. Regenerate with -update.
func TestWireGolden(t *testing.T) {
	testutil.NoGoroutineLeak(t)
	clock := simtime.NewClock()
	clock.Advance(3 * testInterval)
	d, err := pcp.NewDaemon(clock, testInterval, testutil.SyntheticMetrics(4))
	if err != nil {
		t.Fatal(err)
	}
	daddr, err := d.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	p := pmproxy.New(pmproxy.Config{Upstream: daddr, Clock: clock, Interval: testInterval})
	paddr, err := p.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	tr, err := cluster.Assemble(cluster.Config{Nodes: 2, FanOut: 2, Seed: 3, Interval: testInterval})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.Clock.Advance(testInterval + 1)
	srv, caddr, err := cluster.Serve(tr.Root, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	tiers := []struct{ name, addr string }{
		{"daemon", daddr},
		{"proxy", paddr},
		{"cluster", caddr},
	}
	for _, tier := range tiers {
		for _, v := range []uint32{pcp.Version1, pcp.Version2, pcp.Version3} {
			name := fmt.Sprintf("%s-v%d", tier.name, v)
			t.Run(name, func(t *testing.T) {
				got := playWireSession(t, tier.addr, v)
				path := filepath.Join("testdata", "wire", name+".golden")
				if *update {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("wire transcript differs from %s:\ngot:\n%swant:\n%s", path, got, want)
				}
			})
		}
	}
}
