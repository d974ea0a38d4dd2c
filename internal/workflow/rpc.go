package workflow

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"hpa/internal/flatwire"
	"hpa/internal/obs"
)

// This file implements the RPC execution backend and its worker side: one
// pair of length-prefixed flat frames on a stream connection,
//
//	request: len u32 | id u64 | op (u32 len + bytes) | body
//	reply:   len u32 | id u64 | status u8 | worker run ns u64 | body, or the error text
//
// (len counts the bytes after itself), multiplexed by id so the pool's
// concurrent RunTask calls share one connection per worker. A worker is
// this same binary in worker mode (cmd/hpa-workflow -worker) serving the
// kernel registry; the coordinator's RPCBackend ships every task that has a
// RemoteTask descriptor and runs everything else in-process. Nothing
// stores a frame, so the layout carries no version. Workers are stateless
// except for the caches in kernels.go, which affinity routing keeps on one
// worker per shard.

// Reply statuses.
const (
	statusOK byte = iota
	// statusError carries a kernel's error text.
	statusError
	// statusMalformed carries the text of an error that wrapped
	// flatwire.ErrMalformed on the worker; the client's error wraps it too.
	statusMalformed
)

const (
	// maxFrameBytes bounds one frame's payload. The largest legitimate
	// frame carries one loop shard's documents (Mix@1.0 split four ways is
	// ≈ 60 MB); 1 GiB leaves room for corpora 16× that while refusing the
	// 4 GiB a corrupted or hostile u32 length can name.
	maxFrameBytes = 1 << 30
	// frameChunk is how far readFrame allocates ahead of the bytes that
	// have arrived, so a length prefix with nothing behind it costs 1 MiB,
	// not maxFrameBytes. Per-iteration frames are smaller: one allocation.
	frameChunk = 1 << 20
	// replyHeaderLen is a reply frame's fixed prefix: len, id, status, run.
	replyHeaderLen = 4 + 8 + 1 + 8
)

// readFrame reads one frame and returns its payload. A length over
// maxFrameBytes fails, wrapping flatwire.ErrMalformed, before anything is
// allocated; io.EOF is returned bare only at a frame boundary.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	size := binary.LittleEndian.Uint32(hdr[:])
	if size > maxFrameBytes {
		return nil, fmt.Errorf("%w: frame of %d bytes exceeds the %d-byte cap", flatwire.ErrMalformed, size, maxFrameBytes)
	}
	n := int(size)
	buf := make([]byte, 0, min(n, frameChunk))
	for len(buf) < n {
		m := min(n-len(buf), frameChunk)
		buf = slices.Grow(buf, m)[:len(buf)+m]
		if _, err := io.ReadFull(r, buf[len(buf)-m:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("frame truncated inside its %d bytes: %w", n, err)
		}
	}
	return buf, nil
}

// KernelFunc executes one registered worker kernel: flat-encoded arguments
// in, flat-encoded reply out.
type KernelFunc func(args []byte) ([]byte, error)

// kernel is one registry entry.
type kernel struct {
	// fn appends the reply body to dst — the reply frame's recycled buffer,
	// header already reserved — and returns the extended slice.
	fn func(args, dst []byte) ([]byte, error)
	// inline kernels run on the connection's read loop, not a goroutine of
	// their own, so every later frame on the connection is served after
	// their effect: how a keyed body is cached before the task naming it.
	inline bool
}

var (
	kernelMu sync.RWMutex
	kernels  = make(map[string]kernel)
)

// RegisterKernel adds a kernel to the worker registry under the given op
// name — the name RemoteTask.Op resolves against on the worker. The
// built-in kernels (kernels.go) register themselves; registering a taken
// name panics, like http.Handle.
func RegisterKernel(name string, fn KernelFunc) {
	registerKernel(name, kernel{fn: func(args, dst []byte) ([]byte, error) {
		out, err := fn(args)
		return append(dst, out...), err
	}})
}

func registerKernel(name string, k kernel) {
	kernelMu.Lock()
	defer kernelMu.Unlock()
	if _, dup := kernels[name]; dup {
		panic(fmt.Sprintf("workflow: kernel %q registered twice", name))
	}
	kernels[name] = k
}

// replyBufs recycles reply frame buffers across requests and connections.
var replyBufs = sync.Pool{New: func() any {
	b := make([]byte, replyHeaderLen, 4096)
	return &b
}}

// serveRequest runs one kernel and returns its reply frame in a pooled
// buffer the caller puts back after writing it. A worker serves whatever
// arrives on its socket: a body the kernel's decoder rejects, an unknown op
// (both wrapping flatwire.ErrMalformed) and a kernel panic all come back
// as error replies, never as a dead process.
func serveRequest(k kernel, known bool, id uint64, op string, body []byte) *[]byte {
	bp := replyBufs.Get().(*[]byte)
	hdr := (*bp)[:replyHeaderLen]
	start := time.Now()
	out, err := func() (out []byte, err error) {
		if !known {
			return nil, fmt.Errorf("%w: worker has no kernel %q (version mismatch?)", flatwire.ErrMalformed, op)
		}
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("workflow: kernel %s panicked: %v", op, p)
			}
		}()
		return k.fn(body, hdr)
	}()
	run := time.Since(start)
	if err == nil && len(out)-4 > maxFrameBytes {
		err = fmt.Errorf("workflow: kernel %s: reply of %d bytes exceeds the frame cap", op, len(out)-4)
	}
	status := statusOK
	if err != nil {
		status = statusError
		if errors.Is(err, flatwire.ErrMalformed) {
			status = statusMalformed
		}
		out = append(hdr, err.Error()...)
	}
	binary.LittleEndian.PutUint32(out, uint32(len(out)-4))
	binary.LittleEndian.PutUint64(out[4:], id)
	out[12] = status
	binary.LittleEndian.PutUint64(out[13:], uint64(run))
	*bp = out
	return bp
}

// ServeWorkerConn serves the worker protocol on one connection until it
// closes or sends something no reply can be addressed for (a frame over
// the cap or truncated, a header without id and op), then waits for the
// kernels still running and closes it. Over a net.Pipe it is the
// in-process worker of the tests and the calibration.
func ServeWorkerConn(conn io.ReadWriteCloser) {
	var (
		wmu sync.Mutex // one reply frame on the connection at a time
		wg  sync.WaitGroup
	)
	defer conn.Close()
	defer wg.Wait()
	br := bufio.NewReader(conn)
	for {
		frame, err := readFrame(br)
		if err != nil {
			return
		}
		r := flatwire.NewReader(frame)
		id, op := r.U64(), r.String()
		body := r.Rest()
		if r.Err() != nil {
			return
		}
		kernelMu.RLock()
		k, known := kernels[op]
		kernelMu.RUnlock()
		serve := func() {
			bp := serveRequest(k, known, id, op, body)
			wmu.Lock()
			// A failed write means the peer is gone; the read loop finds out.
			_, _ = conn.Write(*bp)
			wmu.Unlock()
			replyBufs.Put(bp)
		}
		if k.inline {
			serve()
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			serve()
		}()
	}
}

// ServeWorker accepts connections on lis and serves each until it closes.
// It returns the first Accept error (closing the listener shuts the worker
// down).
func ServeWorker(lis net.Listener) error {
	for {
		conn, err := lis.Accept()
		if err != nil {
			return err
		}
		go ServeWorkerConn(conn)
	}
}

// ListenAndServeWorker runs a worker on the given TCP address (the
// cmd/hpa-workflow -worker mode). ready, when non-nil, receives the bound
// address once listening — how a parent process spawning workers on ":0"
// learns the chosen ports.
func ListenAndServeWorker(addr string, ready chan<- string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("workflow: worker listen %s: %w", addr, err)
	}
	if ready != nil {
		ready <- lis.Addr().String()
	}
	return ServeWorker(lis)
}

// remoteError is a worker's error reply on the coordinator.
type remoteError struct {
	msg       string
	malformed bool
}

func (e *remoteError) Error() string { return e.msg }

// Is lets errors.Is(err, flatwire.ErrMalformed) see through the wire.
func (e *remoteError) Is(target error) bool { return e.malformed && target == flatwire.ErrMalformed }

// wireReply is one decoded reply frame.
type wireReply struct {
	body []byte        // the kernel's reply body (nil when err is set)
	run  time.Duration // the worker's kernel run time
	n    int           // reply frame bytes, length prefix included
	err  error
}

// wireClient is the coordinator's end of one worker connection: request
// frames go out under wmu, a read loop routes reply frames to callers by id.
type wireClient struct {
	conn io.ReadWriteCloser
	// wmu serializes request frames, and with them the keyed-body claim
	// that decides whether a store frame precedes a task's (roundTrip).
	wmu sync.Mutex

	mu      sync.Mutex
	next    uint64
	pending map[uint64]chan wireReply
	err     error // why the read loop ended; set before done closes
	done    chan struct{}
}

func newWireClient(conn io.ReadWriteCloser) *wireClient {
	c := &wireClient{conn: conn, pending: make(map[uint64]chan wireReply), done: make(chan struct{})}
	go c.readLoop()
	return c
}

// readLoop delivers reply frames until the connection fails or closes,
// then fails every call still waiting.
func (c *wireClient) readLoop() {
	defer close(c.done)
	br := bufio.NewReader(c.conn)
	var err error
	for {
		var frame []byte
		if frame, err = readFrame(br); err != nil {
			break
		}
		r := flatwire.NewReader(frame)
		id, status, run := r.U64(), r.U8(), time.Duration(r.U64())
		body := r.Rest()
		if err = r.Err(); err != nil {
			break
		}
		rep := wireReply{run: run, n: 4 + len(frame)}
		switch status {
		case statusOK:
			rep.body = body
		case statusError, statusMalformed:
			rep.err = &remoteError{msg: string(body), malformed: status == statusMalformed}
		default:
			rep.err = fmt.Errorf("%w: reply status %d", flatwire.ErrMalformed, status)
		}
		c.mu.Lock()
		ch := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if ch != nil { // else a reply nobody waits for: dropped
			ch <- rep
		}
	}
	c.mu.Lock()
	c.err = fmt.Errorf("connection lost: %w", err)
	for id, ch := range c.pending {
		ch <- wireReply{err: c.err}
		delete(c.pending, id)
	}
	c.mu.Unlock()
}

// sendLocked writes one request frame and returns the channel its reply
// arrives on plus the frame's size. The caller holds wmu.
func (c *wireClient) sendLocked(op string, body []byte) (<-chan wireReply, int, error) {
	n := 8 + flatwire.SizeString(op) + len(body)
	if n > maxFrameBytes {
		return nil, 0, fmt.Errorf("request of %d bytes exceeds the frame cap", n)
	}
	ch := make(chan wireReply, 1) // the read loop never blocks on a caller
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return nil, 0, c.err
	}
	c.next++
	id := c.next
	c.pending[id] = ch
	c.mu.Unlock()
	hdr := make([]byte, 0, 4+n-len(body))
	hdr = flatwire.AppendU32(hdr, uint32(n))
	hdr = flatwire.AppendU64(hdr, id)
	hdr = flatwire.AppendString(hdr, op)
	bufs := net.Buffers{hdr, body}
	if _, err := bufs.WriteTo(c.conn); err != nil {
		// A partial frame corrupts the stream for every later call.
		c.conn.Close()
		return nil, 0, err
	}
	return ch, 4 + n, nil
}

// roundTrip ships one task to the worker and waits for its reply. When the
// task names a keyed body this worker has to be sent (keyedBody.claim), the
// body's store frame goes out first, under the same write lock, so no
// sibling's frame can overtake it; a forced send (the resend after a
// miss) carries the body's full form. It also returns the request bytes
// sent.
func (c *wireClient) roundTrip(op string, body []byte, kb *keyedBody, worker int, force bool) (wireReply, int, error) {
	var store, task <-chan wireReply
	var sent, n int
	var err error
	c.wmu.Lock()
	if kb != nil && kb.claim(worker, force) {
		store, sent, err = c.sendLocked(kb.op, kb.bytes(force))
	}
	if err == nil {
		task, n, err = c.sendLocked(op, body)
		sent += n
	}
	c.wmu.Unlock()
	if err != nil {
		return wireReply{}, sent, err
	}
	rep := <-task
	if store != nil {
		// Already answered: the worker serves store kernels on its read
		// loop, before it reads the task frame.
		st := <-store
		rep.run += st.run
		rep.n += st.n
		if st.err != nil {
			rep.err = st.err
		}
	}
	return rep, sent, rep.err
}

// close closes the connection and waits for the read loop to exit.
func (c *wireClient) close() error {
	err := c.conn.Close()
	<-c.done
	return err
}

// RPCBackend ships remotable shard tasks to worker processes over the flat
// frame protocol above and runs everything else in-process. Tasks without
// an affinity key are spread round-robin; tasks sharing one stick to the
// worker that first received the key. A failed worker call fails the task
// (and with it the plan run) with a wrapped error — there is no silent
// retry, because a retried loop shard could observe different session
// state and break the bit-identical contract.
type RPCBackend struct {
	clients []*wireClient
	labels  []string

	mu       sync.Mutex
	affinity map[string]int
	scopes   map[string]map[string]struct{}
	next     int

	// shipEWMA tracks what a worker round trip costs beyond the kernel it
	// ran: the measured round trip minus the run time the reply frame
	// reports, in nanoseconds, as an exponentially weighted moving average;
	// shipCount counts samples. This is the feedback signal the cost
	// model's RPCShipNS — a loopback lower bound measured at calibration
	// time — can be compared against after a real run (cmd/hpa-workflow
	// prints both).
	shipEWMA  float64
	shipCount int64
}

// shipAlpha is the EWMA weight of the newest ship-time sample.
const shipAlpha = 0.2

// NewRPCBackend dials the given worker addresses (TCP) and returns a
// backend over them. All workers must be reachable; on error, already
// dialed connections are closed.
func NewRPCBackend(addrs []string) (*RPCBackend, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("workflow: rpc backend needs at least one worker address")
	}
	conns := make([]io.ReadWriteCloser, 0, len(addrs))
	for _, addr := range addrs {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return nil, fmt.Errorf("workflow: dial worker %s: %w", addr, err)
		}
		conns = append(conns, conn)
	}
	b := NewRPCBackendConns(conns...)
	copy(b.labels, addrs)
	return b, nil
}

// NewRPCBackendConns returns a backend over already-established worker
// connections (e.g. one end of a net.Pipe with ServeWorkerConn on the
// other) — the in-process form used by tests and the calibration.
func NewRPCBackendConns(conns ...io.ReadWriteCloser) *RPCBackend {
	b := &RPCBackend{affinity: make(map[string]int), scopes: make(map[string]map[string]struct{})}
	for i, conn := range conns {
		b.clients = append(b.clients, newWireClient(conn))
		b.labels = append(b.labels, fmt.Sprintf("client%d", i))
	}
	return b
}

// Close closes the worker connections.
func (b *RPCBackend) Close() error {
	var first error
	for _, c := range b.clients {
		if err := c.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Name implements Backend.
func (b *RPCBackend) Name() string { return "rpc" }

// Workers implements Backend.
func (b *RPCBackend) Workers() int { return len(b.clients) }

// pick selects the worker for an affinity key ("" = plain round-robin) and
// reports whether the key was already pinned (an affinity session hit).
// A non-empty scope records the key against the task's plan run, so
// ReleaseScope can drop every pin the run created even when the run never
// reached its own targeted release (an error mid-loop, an operator without
// a finish hook).
func (b *RPCBackend) pick(key, scope string) (int, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if key != "" {
		if i, ok := b.affinity[key]; ok {
			return i, true
		}
	}
	i := b.next % len(b.clients)
	b.next++
	if key != "" {
		b.affinity[key] = i
		if scope != "" {
			set := b.scopes[scope]
			if set == nil {
				set = make(map[string]struct{})
				b.scopes[scope] = set
			}
			set[key] = struct{}{}
		}
	}
	return i, false
}

// ReleaseAffinity drops affinity pins, so a long-lived backend serving
// many plan runs does not accumulate one map entry per finished loop
// shard (session keys are loop-unique and can never be picked again).
// Loop states release their keys when the loop finishes.
func (b *RPCBackend) ReleaseAffinity(keys ...string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, k := range keys {
		delete(b.affinity, k)
	}
}

// ReleaseScope drops every affinity pin recorded under the given plan-run
// scope — the executor calls it when Plan.Run returns, success or error.
// Keys a loop state already released individually are simply absent. This
// is what keeps a resident serve backend's affinity map bounded by the
// in-flight runs rather than by the runs ever admitted.
func (b *RPCBackend) ReleaseScope(scope string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for k := range b.scopes[scope] {
		delete(b.affinity, k)
	}
	delete(b.scopes, scope)
}

// PinnedAffinities reports how many affinity pins the backend currently
// holds — observability for tests and the serve path's leak accounting.
func (b *RPCBackend) PinnedAffinities() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.affinity)
}

// MeasuredShipNS returns the EWMA of observed per-task ship times — round
// trip minus the worker's kernel run time — in nanoseconds and the number
// of samples behind it (0, 0 before any remote task ran). Compare against
// CostModel.RPCShipNS to see how far the calibrated loopback lower bound
// sits from this deployment's reality.
func (b *RPCBackend) MeasuredShipNS() (float64, int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.shipEWMA, b.shipCount
}

// observeShip folds one measured ship time into the EWMA.
func (b *RPCBackend) observeShip(ns float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.shipCount == 0 {
		b.shipEWMA = ns
	} else {
		b.shipEWMA += shipAlpha * (ns - b.shipEWMA)
	}
	b.shipCount++
}

// RunTask implements Backend: tasks with a remote descriptor ship to a
// worker; the rest run in-process.
func (b *RPCBackend) RunTask(ctx *Context, t *Task) (Value, error) {
	rt := t.Remote
	if rt == nil {
		return t.Run()
	}
	var span *obs.Span // nil on untraced runs; annotated in place when present
	var tracer *obs.Tracer
	if ctx != nil {
		span, tracer = ctx.Span, ctx.Tracer
	}
	i, pinned := b.pick(rt.Affinity, rt.Scope)
	if span != nil {
		span.Worker = b.labels[i]
		// Attribute the XOR value-block traffic this call decodes (and,
		// over a pipe worker, encodes) to the span as deltas of the
		// process-wide counters.
		vRaw0, vCoded0 := flatwire.ValueBytes()
		defer func() {
			raw, coded := flatwire.ValueBytes()
			span.ValueRawBytes += raw - vRaw0
			span.ValueCodedBytes += coded - vCoded0
		}()
		if pinned {
			tracer.Emit("wire", "affinity-hit", rt.Affinity, int64(i))
		}
	}
	ship := func(args func([]byte) []byte, keyed bool) ([]byte, error) {
		body := args(nil)
		start := time.Now()
		rep, sent, err := b.clients[i].roundTrip(rt.Op, body, rt.keyed, i, keyed)
		if err != nil {
			return nil, fmt.Errorf("workflow: rpc backend: worker %s: task %s: %w", b.labels[i], rt.Op, err)
		}
		b.observeShip(float64(time.Since(start) - rep.run))
		if span != nil {
			span.BytesOut += int64(sent)
			span.BytesIn += int64(rep.n)
			span.WorkerRun += rep.run
		}
		return rep.body, nil
	}
	body, err := ship(rt.Args, false)
	if err != nil {
		return nil, err
	}
	out, err := rt.Absorb(body)
	var nr *needResend
	if errors.As(err, &nr) {
		// Cache miss: the worker lacks a body the first send replaced
		// with its key. Re-send to the SAME worker — any other would
		// miss again — behind the keyed body's store frame and with
		// whatever else the miss named inlined, and absorb the second
		// reply. A second miss is a protocol violation: an error.
		if span != nil {
			span.Resend = true
			tracer.Emit("wire", "cache-miss-resend", rt.Op, int64(i))
		}
		args := rt.Args
		if nr.Args != nil {
			args = nr.Args
		}
		if body, err = ship(args, nr.Keyed); err != nil {
			return nil, err
		}
		if out, err = rt.Absorb(body); err != nil {
			if errors.As(err, &nr) {
				return nil, fmt.Errorf("workflow: rpc backend: worker %s: task %s: cache miss after inlined resend", b.labels[i], rt.Op)
			}
			return nil, err
		}
	}
	return out, err
}
