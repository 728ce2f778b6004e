// Package logstore provides durable storage for published edit logs —
// the CDSS persistence layer (§2: publishing an edit log makes it
// "globally available via central or distributed storage"; §5 builds on
// Orchestra's "catalog, communications, and persistence layers").
//
// A Store is an append-only file of publications. Each publication is a
// peer name plus an ordered edit log; replaying the file reproduces the
// global publication sequence, so a restarting node can rebuild (or
// catch up) any view.
//
// Record format (integers big-endian):
//
//	magic "OLG1" (once, at file start)
//	per record: uint32 frame length, then frame:
//	  uint16 peer len, peer,
//	  uint32 edit count, per edit: uint8 op ('+'/'-'),
//	    uint16 rel len, rel, uint32 key len, canonical tuple key
//	  optional trailers, in this order:
//	    uint8 'T', uint16 trace-id len, trace id
//	    uint8 'Q', uint64 global sequence number (nonzero)
//
// The 'T' trailer carries the publication's lineage trace id; the 'Q'
// trailer carries its global sequence number on a sharded bus, where
// per-shard segment files must merge back into one total order on
// replay. Both are optional in both directions: frames written before
// the trailer existed decode with the zero value, and zero values are
// written trailer-free — byte-identical to the older formats. Trailer
// order is canonical ('T' before 'Q') so the decoder and encoder stay
// exact inverses.
package logstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"sync"
	"time"

	"orchestra/internal/core"
	"orchestra/internal/fslock"
	"orchestra/internal/obs"
	"orchestra/internal/value"
)

const magic = "OLG1"

// maxFrame bounds a single record. A length prefix beyond it cannot
// come from Append and is treated as a torn tail by recovery (and as
// corruption by strict reads).
const maxFrame = 1 << 30

// Publication is one published edit log. TraceID is the publication's
// lineage trace id ("" for records written before tracing existed).
// Seq is the publication's global sequence number on a sharded bus
// (0 for records of a single-file log, which is its own total order).
type Publication struct {
	Peer    string
	Log     core.EditLog
	TraceID string
	Seq     uint64
}

// trailerTrace marks the optional trace-id trailer at the end of a
// frame's edit list; trailerSeq the optional global-sequence trailer
// after it.
const (
	trailerTrace = 'T'
	trailerSeq   = 'Q'
)

// Metrics holds the log's instruments. The zero value disables all of
// them (obs instruments are nil-safe).
type Metrics struct {
	// AppendSeconds observes each append's wall clock — encode, write,
	// and fsync — in seconds.
	AppendSeconds *obs.Histogram
	// AppendBytes counts frame bytes written (length prefix included).
	AppendBytes *obs.Counter
	// AppendFailures counts appends that returned an error.
	AppendFailures *obs.Counter
}

// Store is an append-only publication log backed by a file. It is safe
// for concurrent use.
type Store struct {
	mu       sync.Mutex
	f        *os.File
	path     string
	n        int   // records appended (including those found at open)
	repaired int64 // bytes of torn tail dropped by Open's recovery
	metrics  Metrics
}

// SetMetrics installs append instruments. Call it right after Open; it
// is not synchronized against concurrent Appends.
func (s *Store) SetMetrics(m Metrics) {
	s.mu.Lock()
	s.metrics = m
	s.mu.Unlock()
}

// Open opens (or creates) a store at path. A file whose tail frame was
// torn by a crash mid-Append is repaired: the incomplete record is
// truncated away (every preceding record is intact — Append writes one
// frame at a time and fsyncs), the repair is logged, and the store
// opens normally. Corruption that is not a torn tail (bad magic, an
// undecodable complete frame) stays a hard error.
func Open(path string) (*Store, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	// One writer per log file, across processes: a second opener would
	// interleave frames and duplicate history on replay.
	if err := fslock.TryLock(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("logstore: %w", err)
	}
	st := &Store{f: f, path: path}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if info.Size() > 0 {
		pubs, good, torn, err := scanLenient(f, info.Size())
		if err != nil {
			f.Close()
			return nil, err
		}
		if torn != nil {
			if err := f.Truncate(good); err != nil {
				f.Close()
				return nil, fmt.Errorf("logstore: truncating torn tail of %s: %w", path, err)
			}
			if err := f.Sync(); err != nil {
				f.Close()
				return nil, err
			}
			// Truncate does not move the file offset; rewind to the new end
			// so follow-up writes land on the frame boundary.
			if _, err := f.Seek(good, io.SeekStart); err != nil {
				f.Close()
				return nil, err
			}
			st.repaired = info.Size() - good
			log.Printf("logstore: %s: repaired torn tail, dropped %d bytes after record %d (%v)",
				path, st.repaired, len(pubs), torn)
		}
		st.n = len(pubs)
	}
	// A file torn inside the initial magic truncates to empty; (re)write
	// the header in that case.
	if st.n == 0 {
		if info, err := f.Stat(); err != nil {
			f.Close()
			return nil, err
		} else if info.Size() == 0 {
			if _, err := f.WriteString(magic); err != nil {
				f.Close()
				return nil, err
			}
			// The header must be durable before any append is
			// acknowledged; the first frame's fsync is too late if the
			// caller crashes between Open and Append.
			if err := f.Sync(); err != nil {
				f.Close()
				return nil, err
			}
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	return st, nil
}

// ReadLen counts the publications in the log at path without taking
// the writer lock, so inspection tooling (`orchestra stats`) can look
// at a log a live bus holds open. Appends are frame-at-a-time, so the
// count is always a consistent prefix — possibly one publication
// behind the writer, and a torn tail (crash mid-append) is ignored the
// same way Open's recovery would drop it. A missing file is an empty
// log. A directory is a sharded bus: the count is summed over its
// shard segment files.
func ReadLen(path string) (int, error) {
	if info, err := os.Stat(path); err == nil && info.IsDir() {
		segs, err := shardSegments(path)
		if err != nil {
			return 0, err
		}
		total := 0
		for _, seg := range segs {
			n, err := ReadLen(seg)
			if err != nil {
				return 0, err
			}
			total += n
		}
		return total, nil
	}
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, nil
	} else if err != nil {
		return 0, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return 0, err
	}
	if info.Size() == 0 {
		return 0, nil
	}
	pubs, _, _, err := scanLenient(f, info.Size())
	if err != nil {
		return 0, err
	}
	return len(pubs), nil
}

// RepairedBytes reports how many bytes of torn tail Open dropped while
// recovering this store (0 when the file was clean).
func (s *Store) RepairedBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.repaired
}

// Close closes the underlying file.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Close()
}

// Len returns the number of stored publications.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Append durably records a publication with no trace id (an old-format
// frame). Prefer AppendTraced where a lineage id is available.
func (s *Store) Append(peer string, log core.EditLog) error {
	return s.AppendTraced(peer, log, "")
}

// AppendTraced durably records a publication, stamping its lineage
// trace id into the frame trailer (omitted when traceID is "").
func (s *Store) AppendTraced(peer string, log core.EditLog, traceID string) error {
	return s.AppendSeq(peer, log, traceID, 0)
}

// AppendSeq durably records a publication stamped with its global
// sequence number — the per-shard segment append of a sharded bus,
// where seq restores the cross-shard total order on replay (0 writes
// no sequence trailer).
func (s *Store) AppendSeq(peer string, log core.EditLog, traceID string, seq uint64) (err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := time.Now()
	defer func() {
		s.metrics.AppendSeconds.Observe(time.Since(start).Seconds())
		if err != nil {
			s.metrics.AppendFailures.Inc()
		}
	}()
	frame, err := encodeFrame(peer, log, traceID, seq)
	if err != nil {
		return err
	}
	// Both readers reject frames past maxFrame; writing one would make
	// the log permanently unopenable (and past 4 GiB the uint32 length
	// prefix would wrap). Refuse before touching the file.
	if len(frame) > maxFrame {
		return fmt.Errorf("logstore: publication frame is %d bytes, limit %d", len(frame), maxFrame)
	}
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(frame)))
	if _, err := s.f.Write(lenBuf[:]); err != nil {
		return err
	}
	if _, err := s.f.Write(frame); err != nil {
		return err
	}
	if err := s.f.Sync(); err != nil {
		return err
	}
	s.n++
	s.metrics.AppendBytes.Add(int64(len(lenBuf) + len(frame)))
	return nil
}

// Replay reads all publications from the start of the file. The returned
// slice is in publication order.
func (s *Store) Replay() ([]Publication, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	pubs, err := readAll(s.f)
	if err != nil {
		return nil, err
	}
	if _, err := s.f.Seek(0, io.SeekEnd); err != nil {
		return nil, err
	}
	return pubs, nil
}

func encodeFrame(peer string, log core.EditLog, traceID string, seq uint64) ([]byte, error) {
	if len(peer) > 1<<16-1 {
		return nil, fmt.Errorf("logstore: peer name too long")
	}
	var frame []byte
	frame = appendU16(frame, uint16(len(peer)))
	frame = append(frame, peer...)
	frame = appendU32(frame, uint32(len(log)))
	for _, e := range log {
		op := byte('-')
		if e.Insert {
			op = '+'
		}
		frame = append(frame, op)
		if len(e.Rel) > 1<<16-1 {
			return nil, fmt.Errorf("logstore: relation name too long")
		}
		frame = appendU16(frame, uint16(len(e.Rel)))
		frame = append(frame, e.Rel...)
		key := e.Tuple.EncodeKey(nil)
		frame = appendU32(frame, uint32(len(key)))
		frame = append(frame, key...)
	}
	if traceID != "" {
		if len(traceID) > 1<<16-1 {
			return nil, fmt.Errorf("logstore: trace id too long")
		}
		frame = append(frame, trailerTrace)
		frame = appendU16(frame, uint16(len(traceID)))
		frame = append(frame, traceID...)
	}
	if seq != 0 {
		frame = append(frame, trailerSeq)
		frame = appendU64(frame, seq)
	}
	return frame, nil
}

func decodeFrame(frame []byte) (Publication, error) {
	var pub Publication
	rd := &frameReader{b: frame}
	peerLen := rd.u16()
	pub.Peer = string(rd.bytes(int(peerLen)))
	n := rd.u32()
	for i := uint32(0); i < n; i++ {
		op := rd.u8()
		if rd.err == nil && op != '+' && op != '-' {
			// Anything else is corruption; decoding it as a deletion would
			// silently rewrite history on replay.
			return pub, fmt.Errorf("logstore: bad edit op byte %#x in record", op)
		}
		relLen := rd.u16()
		rel := string(rd.bytes(int(relLen)))
		keyLen := rd.u32()
		key := rd.bytes(int(keyLen))
		if rd.err != nil {
			return pub, rd.err
		}
		tup, err := value.DecodeTuple(string(key))
		if err != nil {
			return pub, fmt.Errorf("logstore: bad tuple in record: %w", err)
		}
		pub.Log = append(pub.Log, core.Edit{Insert: op == '+', Rel: rel, Tuple: tup})
	}
	if rd.err != nil {
		return pub, rd.err
	}
	// Optional trailers follow the edit list, in canonical order ('T'
	// then 'Q'), each at most once. Old-format frames end before any
	// trailer; unknown trailer markers and out-of-order trailers are
	// corruption, not extensibility — a reader that skipped data it
	// cannot decode would replay a different history than was written,
	// and a non-canonical order would break the decode/encode
	// exact-inverse property torn-tail repair relies on.
	if len(rd.b) != 0 && rd.b[0] == trailerTrace {
		rd.u8()
		idLen := rd.u16()
		if rd.err == nil && idLen == 0 {
			// The encoder omits the trailer entirely for an empty id, so
			// a zero-length trailer cannot come from Append.
			return pub, fmt.Errorf("logstore: empty trace-id trailer in record")
		}
		pub.TraceID = string(rd.bytes(int(idLen)))
		if rd.err != nil {
			return pub, rd.err
		}
	}
	if len(rd.b) != 0 && rd.b[0] == trailerSeq {
		rd.u8()
		pub.Seq = rd.u64()
		if rd.err != nil {
			return pub, rd.err
		}
		if pub.Seq == 0 {
			// The encoder omits the trailer for seq 0.
			return pub, fmt.Errorf("logstore: zero sequence trailer in record")
		}
	}
	if len(rd.b) != 0 {
		marker := rd.u8()
		if rd.err == nil {
			return pub, fmt.Errorf("logstore: bad trailer marker %#x in record", marker)
		}
		return pub, fmt.Errorf("logstore: %d trailing bytes in record", len(rd.b)+1)
	}
	return pub, nil
}

func readAll(r io.ReadSeeker) ([]Publication, error) {
	if _, err := r.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("logstore: reading magic: %w", err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("logstore: bad magic %q", head)
	}
	var pubs []Publication
	var lenBuf [4]byte
	for {
		if _, err := io.ReadFull(r, lenBuf[:]); errors.Is(err, io.EOF) {
			return pubs, nil
		} else if err != nil {
			return nil, fmt.Errorf("logstore: truncated record header: %w", err)
		}
		n := binary.BigEndian.Uint32(lenBuf[:])
		if n > maxFrame {
			return nil, fmt.Errorf("logstore: record length %d exceeds limit", n)
		}
		frame := make([]byte, n)
		if _, err := io.ReadFull(r, frame); err != nil {
			return nil, fmt.Errorf("logstore: truncated record: %w", err)
		}
		pub, err := decodeFrame(frame)
		if err != nil {
			return nil, err
		}
		pubs = append(pubs, pub)
	}
}

// scanLenient reads records from the start of a file of the given
// size, stopping at a torn tail instead of failing. It returns the
// complete publications, the offset just past the last complete record
// (the truncation point for repair), and — when the tail is torn — the
// condition found there. Errors that cannot be a crash mid-Append (bad
// magic, an undecodable frame whose bytes are all present, a frame
// length the file could hold but that exceeds the append limit) are
// returned as hard errors.
func scanLenient(r io.ReadSeeker, size int64) (pubs []Publication, good int64, torn, err error) {
	if _, err := r.Seek(0, io.SeekStart); err != nil {
		return nil, 0, nil, err
	}
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(r, head); err != nil {
		// File shorter than the magic: torn during creation.
		return nil, 0, fmt.Errorf("torn file header: %w", err), nil
	}
	if string(head) != magic {
		return nil, 0, nil, fmt.Errorf("logstore: bad magic %q", head)
	}
	good = int64(len(magic))
	var lenBuf [4]byte
	for {
		if _, err := io.ReadFull(r, lenBuf[:]); errors.Is(err, io.EOF) {
			return pubs, good, nil, nil
		} else if err != nil {
			return pubs, good, fmt.Errorf("torn record header: %w", err), nil
		}
		n := binary.BigEndian.Uint32(lenBuf[:])
		if int64(n) > size-good-4 {
			// A length the file cannot hold — garbage from a torn write,
			// or the truncated body of one. Classified (and rejected)
			// before the allocation below, so a torn tail can never make
			// recovery allocate gigabytes from 4 garbage bytes.
			return pubs, good, fmt.Errorf("torn record: length %d exceeds %d remaining bytes", n, size-good-4), nil
		}
		if n > maxFrame {
			return nil, 0, nil, fmt.Errorf("logstore: record %d length %d exceeds limit", len(pubs), n)
		}
		frame := make([]byte, n)
		if _, err := io.ReadFull(r, frame); err != nil {
			return pubs, good, fmt.Errorf("torn record body: %w", err), nil
		}
		pub, err := decodeFrame(frame)
		if err != nil {
			// The frame's bytes are all present, so this is not a torn
			// write — refuse to silently drop it.
			return nil, 0, nil, fmt.Errorf("logstore: corrupt record %d: %w", len(pubs), err)
		}
		pubs = append(pubs, pub)
		good += int64(4 + n)
	}
}

type frameReader struct {
	b   []byte
	err error
}

func (r *frameReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b) < n {
		r.err = fmt.Errorf("logstore: short record")
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *frameReader) u8() byte {
	b := r.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *frameReader) u16() uint16 {
	b := r.bytes(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (r *frameReader) u32() uint32 {
	b := r.bytes(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *frameReader) u64() uint64 {
	b := r.bytes(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func appendU16(b []byte, v uint16) []byte {
	var buf [2]byte
	binary.BigEndian.PutUint16(buf[:], v)
	return append(b, buf[:]...)
}

func appendU32(b []byte, v uint32) []byte {
	var buf [4]byte
	binary.BigEndian.PutUint32(buf[:], v)
	return append(b, buf[:]...)
}

func appendU64(b []byte, v uint64) []byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	return append(b, buf[:]...)
}
