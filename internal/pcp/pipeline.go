package pcp

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// ErrClientClosed is the sticky error every request in flight (and every
// later request) fails with once a pipelined client is closed.
var ErrClientClosed = errors.New("pcp: client closed")

// ErrRequestTimeout fails a pipelined request whose per-request deadline
// expired. It wraps os.ErrDeadlineExceeded so errors.Is and net-style
// timeout classification both work. Unlike a lockstep timeout, the
// connection stays in a defined state: the tag is abandoned and the late
// response, if it ever arrives, is discarded by the demux reader.
var ErrRequestTimeout = fmt.Errorf("pcp: request timed out: %w", os.ErrDeadlineExceeded)

// pcall is one request/response exchange, on either transport: the
// encoded request payload, the slot the response lands in, and (for the
// pipeline) the completion signal. Calls are pooled; a call whose round
// trip failed is left to the garbage collector instead, because after a
// timeout the writer or reader may still hold a reference.
type pcall struct {
	typ     uint8
	tag     uint32
	tenant  uint32 // stamped on the request's frame
	req     []byte // encoded request payload (owned, reused)
	resp    []byte // response payload (owned, reused)
	respTyp uint8
	err     error
	done    chan struct{} // 1-buffered: completion never blocks
	timer   *time.Timer   // reused per-request deadline timer
}

var callPool = sync.Pool{
	New: func() any { return &pcall{done: make(chan struct{}, 1)} },
}

func getCall() *pcall {
	c := callPool.Get().(*pcall)
	c.err = nil
	c.respTyp = 0
	return c
}

func putCall(c *pcall) { callPool.Put(c) }

// wait blocks until the call completes or the per-request deadline d
// expires (d <= 0 means no deadline). The deadline timer lives in the
// call and is reused across round trips, so an armed wait does not
// allocate in the steady state.
func (c *pcall) wait(d time.Duration) error {
	if d <= 0 {
		<-c.done
		return nil
	}
	if c.timer == nil {
		c.timer = time.NewTimer(d)
	} else {
		c.timer.Reset(d)
	}
	select {
	case <-c.done:
		if !c.timer.Stop() {
			<-c.timer.C
		}
		return nil
	case <-c.timer.C:
		return ErrRequestTimeout
	}
}

// pipeline is the Version3 transport of a Client: a writer goroutine
// that drains a request queue into coalesced tagged frames, and a demux
// reader that completes calls by tag — many requests outstanding per
// connection, out-of-order completion, per-request deadlines. Any
// transport error is sticky: it fails every pending and future request
// and closes the connection.
type pipeline struct {
	conn net.Conn
	wq   chan *pcall
	quit chan struct{} // closed by fail; unblocks enqueue and the writer

	mu      sync.Mutex
	pending map[uint32]*pcall
	nextTag uint32
	err     error // sticky transport error

	readerDone chan struct{}
	writerDone chan struct{}
}

// pipelineQueueDepth bounds the request queue. A full queue applies
// backpressure by blocking enqueue until the writer drains.
const pipelineQueueDepth = 256

func newPipeline(conn net.Conn, br *bufio.Reader) *pipeline {
	p := &pipeline{
		conn:       conn,
		wq:         make(chan *pcall, pipelineQueueDepth),
		quit:       make(chan struct{}),
		pending:    make(map[uint32]*pcall),
		readerDone: make(chan struct{}),
		writerDone: make(chan struct{}),
	}
	go p.writeLoop()
	go p.readLoop(br)
	return p
}

// enqueue assigns the call a tag, registers it for demux, and hands it
// to the writer.
func (p *pipeline) enqueue(call *pcall) error {
	p.mu.Lock()
	if p.err != nil {
		err := p.err
		p.mu.Unlock()
		return err
	}
	// Tags wrap at 2^32; skip any still pending (a request would have to
	// stay outstanding across four billion successors to collide).
	for {
		p.nextTag++
		if _, live := p.pending[p.nextTag]; !live {
			break
		}
	}
	call.tag = p.nextTag
	p.pending[call.tag] = call
	p.mu.Unlock()
	select {
	case p.wq <- call:
		return nil
	case <-p.quit:
		p.mu.Lock()
		err := p.err
		delete(p.pending, call.tag)
		p.mu.Unlock()
		return err
	}
}

// writeLoop drains the request queue into a frameBatch: whatever is
// queued when the writer wakes goes out in one write, so a
// burst of concurrent requests coalesces into one syscall.
func (p *pipeline) writeLoop() {
	defer close(p.writerDone)
	var batch frameBatch
	for {
		select {
		case call := <-p.wq:
			err := batch.append(call.typ, call.tag, call.tenant, call.req)
		drain:
			for err == nil {
				select {
				case next := <-p.wq:
					err = batch.append(next.typ, next.tag, next.tenant, next.req)
				default:
					break drain
				}
			}
			if err == nil {
				err = batch.flush(p.conn)
			}
			if err != nil {
				p.fail(err)
				return
			}
		case <-p.quit:
			return
		}
	}
}

// readLoop demultiplexes responses by tag (the echoed tenant is
// informational). A tag pending with a nil call belongs to an abandoned
// (timed-out) request; its payload is discarded without allocating. A
// tag not pending at all was never issued or was already answered, and
// fails the connection with ErrProtocol.
func (p *pipeline) readLoop(br *bufio.Reader) {
	defer close(p.readerDone)
	for {
		typ, tag, _, n, err := readFrameHdr(br)
		if err != nil {
			p.fail(err)
			return
		}
		p.mu.Lock()
		call, issued := p.pending[tag]
		delete(p.pending, tag)
		p.mu.Unlock()
		if !issued {
			p.fail(fmt.Errorf("%w: response to tag %d, which is not outstanding", ErrProtocol, tag))
			return
		}
		if call == nil {
			if _, err := br.Discard(int(n)); err != nil {
				p.fail(err)
				return
			}
			continue
		}
		if uint32(cap(call.resp)) < n {
			call.resp = make([]byte, n)
		}
		call.resp = call.resp[:n]
		if _, err := io.ReadFull(br, call.resp); err != nil {
			call.err = err
			call.done <- struct{}{}
			p.fail(err)
			return
		}
		call.respTyp = typ
		call.done <- struct{}{}
	}
}

// fail records the sticky error, closes the connection (unblocking both
// loops), and completes every pending call with the error. It is
// idempotent; the first error wins.
func (p *pipeline) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
		close(p.quit)
		p.conn.Close()
	}
	sticky := p.err
	pend := p.pending
	p.pending = make(map[uint32]*pcall)
	p.mu.Unlock()
	for _, call := range pend {
		if call == nil {
			continue // abandoned by a timed-out roundTrip
		}
		call.err = sticky
		call.done <- struct{}{}
	}
}

// close shuts the pipeline down: pending requests fail with
// ErrClientClosed and both goroutines exit.
func (p *pipeline) close() error {
	p.fail(ErrClientClosed)
	<-p.writerDone
	<-p.readerDone
	return nil
}

// roundTrip issues one pipelined request and waits for its response
// under the per-request deadline d (0 = none). A timed-out call is
// abandoned: its tag stays pending with a nil call, so the demux reader
// discards its late response, and the tag is not reissued meanwhile.
func (p *pipeline) roundTrip(call *pcall, d time.Duration) error {
	if err := p.enqueue(call); err != nil {
		return err
	}
	if err := call.wait(d); err != nil {
		p.mu.Lock()
		if p.pending[call.tag] == call {
			p.pending[call.tag] = nil
		}
		p.mu.Unlock()
		return err
	}
	return call.err
}
