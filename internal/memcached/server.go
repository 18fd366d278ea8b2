package memcached

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Server speaks the memcached text protocol over TCP. Connections are
// dispatched to a fixed pool of worker goroutines, mirroring the paper's
// configuration ("a worker thread, a network listener thread, and some
// miscellaneous background threads", §9.2).
type Server struct {
	store    *Store
	listener net.Listener
	workers  int

	conns chan net.Conn
	wg    sync.WaitGroup

	// Per-operation I/O deadlines in nanoseconds (0 = none): a slow or
	// stalled client cannot pin a pool worker forever.
	readTimeout  atomic.Int64
	writeTimeout atomic.Int64

	// Admission control (SetAdmission): commands beyond the inflight cap,
	// or arriving while the backend reports saturation, are shed with
	// SERVER_ERROR busy instead of queuing without bound.
	admission atomic.Pointer[Admission]
	inflight  atomic.Int32
	shedOps   atomic.Int64

	// pausedUntil (UnixNano) stalls every response while set — the
	// chaos harness's "hung shard": connections stay open, commands are
	// read, nothing is answered until the deadline passes. 0 = running.
	pausedUntil atomic.Int64

	// done tears down the accept loop without racing the conns channel
	// close; active tracks live connections so Kill can sever them.
	done chan struct{}

	mu       sync.Mutex
	closed   bool
	killed   bool
	active   map[net.Conn]struct{}
	acceptWG sync.WaitGroup
}

// Admission is the server's overload policy. Shedding answers fast and
// keeps the connection framed (a shed set still swallows its body), so a
// loaded server degrades into explicit SERVER_ERROR busy responses rather
// than into unbounded queueing and timeouts. This is where overload is
// shed: before a request reaches the partitioned runtime.
type Admission struct {
	// MaxInflight caps commands being processed concurrently (0 = no
	// cap). With one command per pool worker this is effectively "how
	// many workers may be busy before new commands are shed".
	MaxInflight int32
	// Saturated, when set, is probed per command; true sheds it. It is
	// the embedder's own backend-pressure signal: the partitioned runtime
	// exposes none, because its queues are unbounded.
	Saturated func() bool
}

// SetAdmission installs (or, with a zero Admission, removes) the overload
// policy. Safe to call while serving.
func (s *Server) SetAdmission(a Admission) {
	if a.MaxInflight <= 0 && a.Saturated == nil {
		s.admission.Store(nil)
		return
	}
	s.admission.Store(&a)
}

// ShedOps reports how many commands admission control refused.
func (s *Server) ShedOps() int64 { return s.shedOps.Load() }

// admit decides whether the next command may start.
func (s *Server) admit() bool {
	a := s.admission.Load()
	if a == nil {
		return true
	}
	if a.MaxInflight > 0 && s.inflight.Load() >= a.MaxInflight {
		return false
	}
	if a.Saturated != nil && a.Saturated() {
		return false
	}
	return true
}

// SetDeadlines bounds how long one read (a command line or a set body)
// and one write flush may take per connection. Zero disables a bound.
// Safe to call while the server is running; new operations pick it up.
func (s *Server) SetDeadlines(read, write time.Duration) {
	s.readTimeout.Store(int64(read))
	s.writeTimeout.Store(int64(write))
}

// armRead applies the read deadline before a blocking read.
func (s *Server) armRead(conn net.Conn) {
	if d := s.readTimeout.Load(); d > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(time.Duration(d)))
	}
}

// armWrite applies the write deadline before a flush.
func (s *Server) armWrite(conn net.Conn) {
	if d := s.writeTimeout.Load(); d > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(time.Duration(d)))
	}
}

// NewServer starts a server on addr ("127.0.0.1:0" picks a free port).
func NewServer(addr string, store *Store, workers int) (*Server, error) {
	if workers < 1 {
		workers = 1
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("memcached: listen: %w", err)
	}
	s := &Server{store: store, listener: ln, workers: workers,
		conns: make(chan net.Conn), done: make(chan struct{}), active: map[net.Conn]struct{}{}}
	s.acceptWG.Add(1)
	go s.acceptLoop()
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.workerLoop()
	}
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.listener.Addr().String() }

// Close stops the listener and waits for workers to drain. In-flight
// connections are served to completion (their clients quit or EOF).
func (s *Server) Close() {
	s.shutdown(false)
}

// Kill is the chaos-mode crash: it severs every live connection
// mid-operation, stops the listener, and tears the worker pool down
// without the graceful drain. Clients see reset/EOF errors, exactly the
// failure surface a died shard presents to the cluster router.
func (s *Server) Kill() {
	s.shutdown(true)
}

func (s *Server) shutdown(kill bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.killed = kill
	var victims []net.Conn
	if kill {
		for c := range s.active {
			victims = append(victims, c)
		}
	}
	s.mu.Unlock()
	close(s.done)
	_ = s.listener.Close()
	for _, c := range victims {
		_ = c.Close()
	}
	// The accept loop can no longer be mid-send on conns (done is
	// closed and it exits before sending), so closing the channel is
	// race-free; workers drain any handed-but-unserved connections.
	s.acceptWG.Wait()
	close(s.conns)
	s.wg.Wait()
}

// Pause stalls every response for d — the simulated hung shard: commands
// are still read, connections stay open, nothing is answered until the
// deadline passes. A second call extends or shortens the stall; Pause(0)
// resumes immediately.
func (s *Server) Pause(d time.Duration) {
	if d <= 0 {
		s.pausedUntil.Store(0)
		return
	}
	s.pausedUntil.Store(time.Now().Add(d).UnixNano())
}

// gate blocks while the server is paused, waking periodically so a
// concurrent Kill still tears the worker down promptly.
func (s *Server) gate() {
	for {
		until := s.pausedUntil.Load()
		if until == 0 {
			return
		}
		now := time.Now().UnixNano()
		if until <= now {
			return
		}
		d := time.Duration(until - now)
		if d > 2*time.Millisecond {
			d = 2 * time.Millisecond
		}
		time.Sleep(d)
	}
}

func (s *Server) acceptLoop() {
	defer s.acceptWG.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return // listener closed
		}
		select {
		case s.conns <- conn:
		case <-s.done:
			_ = conn.Close()
			return
		}
	}
}

func (s *Server) workerLoop() {
	defer s.wg.Done()
	for conn := range s.conns {
		s.serve(conn)
	}
}

// maxLineLen bounds one command line: a client streaming an endless line
// is unframeable and gets disconnected instead of growing the buffer.
const maxLineLen = 8 << 10

// serve handles one connection until quit, EOF, or a deadline expiry.
func (s *Server) serve(conn net.Conn) {
	s.mu.Lock()
	if s.killed {
		s.mu.Unlock()
		_ = conn.Close()
		return
	}
	s.active[conn] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.active, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	for {
		s.armRead(conn)
		line, err := r.ReadString('\n')
		if err != nil || len(line) > maxLineLen {
			return
		}
		s.gate()
		line = strings.TrimRight(line, "\r\n")
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "get", "gets":
			if !s.admit() {
				s.shedOps.Add(1)
				fmt.Fprint(w, "SERVER_ERROR busy\r\n")
				break
			}
			s.inflight.Add(1)
			s.handleGet(w, fields[1:], fields[0] == "gets")
			s.inflight.Add(-1)
		case "set", "cas", "add", "setx":
			if !s.admit() {
				s.shedOps.Add(1)
				if !s.shedSet(conn, r, w, fields[1:]) {
					_ = w.Flush()
					return
				}
				break
			}
			s.inflight.Add(1)
			ok := s.handleStore(conn, r, w, fields[0], fields[1:])
			s.inflight.Add(-1)
			if !ok {
				_ = w.Flush()
				return
			}
		case "delete":
			if !s.admit() {
				s.shedOps.Add(1)
				fmt.Fprint(w, "SERVER_ERROR busy\r\n")
				break
			}
			s.inflight.Add(1)
			if len(fields) >= 2 && s.store.Delete(fields[1]) {
				fmt.Fprint(w, "DELETED\r\n")
			} else {
				fmt.Fprint(w, "NOT_FOUND\r\n")
			}
			s.inflight.Add(-1)
		case "digest":
			if !s.admit() {
				s.shedOps.Add(1)
				fmt.Fprint(w, "SERVER_ERROR busy\r\n")
				break
			}
			s.inflight.Add(1)
			s.handleDigest(w, fields[1:])
			s.inflight.Add(-1)
		case "keys":
			if !s.admit() {
				s.shedOps.Add(1)
				fmt.Fprint(w, "SERVER_ERROR busy\r\n")
				break
			}
			s.inflight.Add(1)
			s.handleKeys(w, fields[1:])
			s.inflight.Add(-1)
		case "purgetomb":
			if !s.admit() {
				s.shedOps.Add(1)
				fmt.Fprint(w, "SERVER_ERROR busy\r\n")
				break
			}
			s.inflight.Add(1)
			s.handlePurgeTomb(w, fields[1:])
			s.inflight.Add(-1)
		case "stats":
			hits, misses, evictions := s.store.Stats()
			fmt.Fprintf(w, "STAT get_hits %d\r\nSTAT get_misses %d\r\nSTAT evictions %d\r\nSTAT curr_items %d\r\nSTAT shed_ops %d\r\nEND\r\n",
				hits, misses, evictions, s.store.Len(), s.shedOps.Load())
		case "version":
			fmt.Fprint(w, "VERSION privagic-mini-1.6.12\r\n")
		case "quit":
			_ = w.Flush()
			return
		default:
			fmt.Fprint(w, "ERROR\r\n")
		}
		s.armWrite(conn)
		if err := w.Flush(); err != nil {
			return
		}
	}
}

func (s *Server) handleGet(w *bufio.Writer, keys []string, withCas bool) {
	for _, key := range keys {
		if withCas {
			if v, flags, casid, ok := s.store.Gets(key); ok {
				fmt.Fprintf(w, "VALUE %s %d %d %d\r\n", key, flags, len(v), casid)
				_, _ = w.Write(v)
				fmt.Fprint(w, "\r\n")
			}
			continue
		}
		if v, flags, ok := s.store.Get(key); ok {
			fmt.Fprintf(w, "VALUE %s %d %d\r\n", key, flags, len(v))
			_, _ = w.Write(v)
			fmt.Fprint(w, "\r\n")
		}
	}
	fmt.Fprint(w, "END\r\n")
}

// handlePurgeTomb answers "purgetomb <floor>" with "PURGED <n>": it
// removes every tombstone whose stamp is below the floor and raises the
// store's tombstone floor so zombie writes below it cannot re-insert
// (see Store.PurgeTombstones). Sent only by the router's generation-floor
// sweep when the whole replica set is converged.
func (s *Server) handlePurgeTomb(w *bufio.Writer, args []string) {
	if len(args) != 1 {
		fmt.Fprint(w, "CLIENT_ERROR bad command line format\r\n")
		return
	}
	floor, err := strconv.ParseUint(args[0], 10, 32)
	if err != nil {
		fmt.Fprint(w, "CLIENT_ERROR bad command line format\r\n")
		return
	}
	fmt.Fprintf(w, "PURGED %d\r\n", s.store.PurgeTombstones(uint32(floor)))
}

// handleDigest answers "digest <lo> <hi>" with "DIGEST <fold> <count>" —
// the order-independent segment digest anti-entropy compares.
func (s *Server) handleDigest(w *bufio.Writer, args []string) {
	if len(args) != 2 {
		fmt.Fprint(w, "CLIENT_ERROR bad command line format\r\n")
		return
	}
	lo, err1 := strconv.ParseUint(args[0], 10, 64)
	hi, err2 := strconv.ParseUint(args[1], 10, 64)
	if err1 != nil || err2 != nil {
		fmt.Fprint(w, "CLIENT_ERROR bad command line format\r\n")
		return
	}
	d, n := s.store.RangeDigest(lo, hi)
	fmt.Fprintf(w, "DIGEST %d %d\r\n", d, n)
}

// handleKeys answers "keys <lo> <hi>" with one "KEY <key> <flags>" line
// per item in the hash range, terminated by END.
func (s *Server) handleKeys(w *bufio.Writer, args []string) {
	if len(args) != 2 {
		fmt.Fprint(w, "CLIENT_ERROR bad command line format\r\n")
		return
	}
	lo, err1 := strconv.ParseUint(args[0], 10, 64)
	hi, err2 := strconv.ParseUint(args[1], 10, 64)
	if err1 != nil || err2 != nil {
		fmt.Fprint(w, "CLIENT_ERROR bad command line format\r\n")
		return
	}
	for _, it := range s.store.RangeKeys(lo, hi) {
		fmt.Fprintf(w, "KEY %s %d\r\n", it.Key, it.Flags)
	}
	fmt.Fprint(w, "END\r\n")
}

// maxItemSize caps a set body (the classic 8 MiB item limit).
const maxItemSize = 8 << 20

// handleStore parses "set|add <key> <flags> <exptime> <bytes>" or
// "cas <key> <flags> <exptime> <bytes> <casid>" plus the data block;
// returns false on a connection-fatal error. Malformed commands answer
// CLIENT_ERROR; the connection only closes when the stream can no
// longer be framed (unparseable or oversized length, truncated body) —
// anything else would let this worker serve garbage forever.
func (s *Server) handleStore(conn net.Conn, r *bufio.Reader, w *bufio.Writer, verb string, args []string) bool {
	if len(args) < 4 || (verb == "cas" && len(args) < 5) {
		fmt.Fprint(w, "CLIENT_ERROR bad command line format\r\n")
		return true
	}
	n, err := strconv.Atoi(args[3])
	if err != nil || n < 0 {
		// No credible length: treat the stream as line-framed and keep
		// the connection — body lines, if any, will read as unknown
		// commands and answer ERROR, never get stored.
		fmt.Fprint(w, "CLIENT_ERROR bad data chunk\r\n")
		return true
	}
	if n > maxItemSize {
		// A real body of this size would have to be swallowed to stay
		// framed; hang up instead of buffering an attacker's gigabyte.
		fmt.Fprint(w, "CLIENT_ERROR bad data chunk\r\n")
		return false
	}
	flags, flagsErr := strconv.ParseUint(args[1], 10, 32)
	_, expErr := strconv.Atoi(args[2])
	var casid uint64
	var casErr error
	if verb == "cas" {
		casid, casErr = strconv.ParseUint(args[4], 10, 64)
	}
	data := make([]byte, n+2)
	s.armRead(conn)
	if _, err := readFull(r, data); err != nil {
		return false
	}
	switch {
	case data[n] != '\r' || data[n+1] != '\n':
		// The framed bytes exist but the terminator is wrong; the
		// stream stays aligned, so keep the connection.
		fmt.Fprint(w, "CLIENT_ERROR bad data chunk\r\n")
	case flagsErr != nil || expErr != nil || casErr != nil:
		fmt.Fprint(w, "CLIENT_ERROR bad command line format\r\n")
	case verb == "cas":
		// cas carries sealed cluster-path bodies only (read-repair's CAS
		// write-back): verify the integrity tag at the store boundary
		// exactly as setx does. Without this, a repair payload corrupted
		// in transit is acknowledged and stored, caught only at the next
		// read — which triggers another repair of the same key, and the
		// corrupt copy can ping-pong. Every trust-domain crossing
		// re-verifies.
		if _, okSeal := OpenValue(args[0], uint32(flags), data[:n]); !okSeal {
			fmt.Fprint(w, "CLIENT_ERROR bad seal\r\n")
			break
		}
		switch s.store.Cas(args[0], data[:n], uint32(flags), casid) {
		case CasStored:
			fmt.Fprint(w, "STORED\r\n")
		case CasExists:
			fmt.Fprint(w, "EXISTS\r\n")
		default:
			fmt.Fprint(w, "NOT_FOUND\r\n")
		}
	case verb == "add":
		// Same contract as cas: add is the other read-repair store verb
		// (refilling a member that lost its copy), so its body is sealed
		// and must verify before it is acknowledged.
		if _, okSeal := OpenValue(args[0], uint32(flags), data[:n]); !okSeal {
			fmt.Fprint(w, "CLIENT_ERROR bad seal\r\n")
			break
		}
		if s.store.Add(args[0], data[:n], uint32(flags)) {
			fmt.Fprint(w, "STORED\r\n")
		} else {
			fmt.Fprint(w, "NOT_STORED\r\n")
		}
	case verb == "setx":
		// Last-writer-wins set: stores only when the stamp in flags is
		// not older than what is held (see Store.SetLWW). NOT_STORED is
		// the LWW refusal, not an error — the replica already holds a
		// newer value.
		//
		// The response echoes the FNV-64 hash of the key and the flags
		// word as stored. A bit flip in the request's key or flags field
		// can still yield a well-formed command — the server then stores
		// under the wrong key (or the wrong stamp) and, without the echo,
		// answers a bare STORED that the client must take as a durable
		// ack for a write that never landed where it believes. The echo
		// lets the client verify what was actually stored; a mismatch
		// (or a corrupted echo) surfaces as a typed protocol error and
		// the write is retried, never falsely acked.
		//
		// The body is verified against its integrity seal before it is
		// stored: a payload flipped in transit (key and flags line
		// intact, so the echo alone would pass) must be refused, not
		// acknowledged — an acked-but-corrupt copy is a latent loss that
		// surfaces when the good replica dies and anti-entropy clones
		// the bad one. Refusal keeps the stream framed; the client sees
		// a typed error and retries with a fresh stamp.
		if _, okSeal := OpenValue(args[0], uint32(flags), data[:n]); !okSeal {
			fmt.Fprint(w, "CLIENT_ERROR bad seal\r\n")
			break
		}
		//
		// The optional trailing "force" token bypasses the tombstone
		// stamp floor (see Store.SetLWWForce): it is sent only by the
		// anti-entropy pull path, which copies values proven to exist on
		// a live replica and may legitimately carry stamps from before
		// the last tombstone purge.
		var stored bool
		if len(args) >= 5 && args[4] == "force" {
			stored = s.store.SetLWWForce(args[0], data[:n], uint32(flags))
		} else {
			stored = s.store.SetLWW(args[0], data[:n], uint32(flags))
		}
		if stored {
			fmt.Fprintf(w, "STORED %d %d\r\n", KeyHash(args[0]), uint32(flags))
		} else {
			fmt.Fprintf(w, "NOT_STORED %d %d\r\n", KeyHash(args[0]), uint32(flags))
		}
	default:
		s.store.Set(args[0], data[:n], uint32(flags))
		fmt.Fprint(w, "STORED\r\n")
	}
	return true
}

// shedSet refuses a set under overload while preserving the stream
// framing: a credible body is swallowed exactly like handleSet would,
// then the client gets SERVER_ERROR busy. Framing-fatal inputs follow
// handleSet's rules (false = hang up). Nothing is ever stored.
func (s *Server) shedSet(conn net.Conn, r *bufio.Reader, w *bufio.Writer, args []string) bool {
	if len(args) < 4 {
		fmt.Fprint(w, "SERVER_ERROR busy\r\n")
		return true
	}
	n, err := strconv.Atoi(args[3])
	if err != nil || n < 0 {
		fmt.Fprint(w, "SERVER_ERROR busy\r\n")
		return true
	}
	if n > maxItemSize {
		fmt.Fprint(w, "SERVER_ERROR busy\r\n")
		return false
	}
	data := make([]byte, n+2)
	s.armRead(conn)
	if _, err := readFull(r, data); err != nil {
		return false
	}
	fmt.Fprint(w, "SERVER_ERROR busy\r\n")
	return true
}

func readFull(r *bufio.Reader, buf []byte) (int, error) {
	total := 0
	for total < len(buf) {
		n, err := r.Read(buf[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
