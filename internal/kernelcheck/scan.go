package kernelcheck

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"

	"satcheck/internal/cnf"
	"satcheck/internal/drat"
	"satcheck/internal/kernel"
)

// lratMaxVar mirrors internal/drat's variable cap: values beyond it are
// treated as garbage input, not a cause for a multi-gigabyte allocation.
const lratMaxVar = 1 << 28

// Scanner tokenizes ASCII LRAT straight off a byte slice into a
// kernel.Proof's flat slabs: no per-line allocation, no intermediate
// reader. Grammar and messages are drat.ParseLRAT's exactly, so a proof
// rejected at parse time gets the same diagnostic from every checker.
//
// A clause ID, hint or deletion beyond the kernel's 31-bit ID space is not
// a parse error: the first one is kept for RangeErr, which callers report
// only once the whole input has parsed — a syntax error anywhere in the
// file wins, as when the proof is parsed first and flattened after.
//
// A Scanner can start at any op boundary a previous pass recorded with
// Offset; the out-of-core checker re-reads its windows that way.
type Scanner struct {
	data     []byte
	pos      int
	line     int
	rangeErr error
}

// NewScanner returns a scanner over data starting at byte offset off.
func NewScanner(data []byte, off int64) *Scanner {
	return &Scanner{data: data, pos: int(off), line: 1}
}

// Offset reports the current byte position (an op boundary between ScanOp
// calls).
func (s *Scanner) Offset() int64 { return int64(s.pos) }

// RangeErr returns the rejection for the first value the scan found
// beyond the kernel's 31-bit ID space, or nil.
func (s *Scanner) RangeErr() error { return s.rangeErr }

type lratTok struct {
	val int
	isD bool
}

// next returns the next token, mirroring internal/drat's LRAT tokenizer:
// whitespace separated signed integers, 'd' markers, comments to end of
// line, values saturating past lratMaxVar*16.
func (s *Scanner) next() (lratTok, error) {
	for {
		if s.pos >= len(s.data) {
			return lratTok{}, io.EOF
		}
		b := s.data[s.pos]
		s.pos++
		switch {
		case b == ' ' || b == '\t' || b == '\r':
			continue
		case b == '\n':
			s.line++
			continue
		case b == 'c':
			for {
				if s.pos >= len(s.data) {
					return lratTok{}, io.EOF
				}
				b = s.data[s.pos]
				s.pos++
				if b == '\n' {
					s.line++
					break
				}
			}
			continue
		case b == 'd':
			return lratTok{isD: true}, nil
		case b == '-' || (b >= '0' && b <= '9'):
			neg := b == '-'
			val := 0
			if !neg {
				val = int(b - '0')
			}
			digits := !neg
			for s.pos < len(s.data) {
				b = s.data[s.pos]
				if b < '0' || b > '9' {
					break
				}
				s.pos++
				digits = true
				if val <= lratMaxVar*16 {
					val = val*10 + int(b-'0')
				}
			}
			if !digits {
				return lratTok{}, fmt.Errorf("lrat: line %d: '-' without digits", s.line)
			}
			if neg {
				val = -val
			}
			return lratTok{val: val}, nil
		default:
			return lratTok{}, fmt.Errorf("lrat: line %d: unexpected byte %q", s.line, b)
		}
	}
}

// narrow returns v as a kernel ID, recording the first value that does not
// fit for RangeErr. The stand-in 0 never reaches the kernel.
func (s *Scanner) narrow(v int) int32 {
	id, err := kernelID(v)
	if err != nil && s.rangeErr == nil {
		s.rangeErr = err
	}
	return id
}

// ScanOp appends one proof line (addition or deletion) to p, counting
// additions in p.NumAdds and widening p.MaxVar, and returns io.EOF at a
// clean end of input.
func (s *Scanner) ScanOp(p *kernel.Proof) error {
	t, err := s.next()
	if err != nil {
		return err // io.EOF: clean end
	}
	if t.isD {
		return fmt.Errorf("lrat: line %d: 'd' where a clause ID was expected", s.line)
	}
	if t.val <= 0 {
		return fmt.Errorf("lrat: line %d: bad clause ID %d", s.line, t.val)
	}
	op := kernel.Op{ID: s.narrow(t.val)}
	t, err = s.next()
	if err != nil {
		return fmt.Errorf("lrat: line %d: truncated line: %w", s.line, err)
	}
	if t.isD {
		op.Del = true
		op.DelOff = int32(len(p.Dels))
		for {
			t, err = s.next()
			if err != nil {
				return fmt.Errorf("lrat: line %d: truncated deletion: %w", s.line, err)
			}
			if t.isD {
				return fmt.Errorf("lrat: line %d: 'd' inside a deletion", s.line)
			}
			if t.val == 0 {
				break
			}
			if t.val < 0 {
				return fmt.Errorf("lrat: line %d: negative ID %d in deletion", s.line, t.val)
			}
			p.Dels = append(p.Dels, s.narrow(t.val))
		}
		op.DelN = int32(len(p.Dels)) - op.DelOff
		p.Ops = append(p.Ops, op)
		return nil
	}
	op.LitOff = int32(len(p.Lits))
	for t.val != 0 {
		if t.isD {
			return fmt.Errorf("lrat: line %d: 'd' inside a clause", s.line)
		}
		if t.val > lratMaxVar || t.val < -lratMaxVar {
			return fmt.Errorf("lrat: line %d: variable out of range", s.line)
		}
		l := cnf.LitFromDimacs(t.val)
		if v := int32(l.Var()); v > p.MaxVar {
			p.MaxVar = v
		}
		p.Lits = append(p.Lits, int32(l))
		t, err = s.next()
		if err != nil {
			return fmt.Errorf("lrat: line %d: truncated clause: %w", s.line, err)
		}
	}
	op.LitN = int32(len(p.Lits)) - op.LitOff
	op.HintOff = int32(len(p.Hints))
	for {
		t, err = s.next()
		if err != nil {
			return fmt.Errorf("lrat: line %d: truncated hints: %w", s.line, err)
		}
		if t.isD {
			return fmt.Errorf("lrat: line %d: 'd' inside hints", s.line)
		}
		if t.val == 0 {
			break
		}
		p.Hints = append(p.Hints, s.narrow(t.val))
	}
	op.HintN = int32(len(p.Hints)) - op.HintOff
	p.Ops = append(p.Ops, op)
	p.NumAdds++
	return nil
}

// pathSource is a proof source backed by a file on disk (the facade's
// context-aware wrapper reports its file this way, "" when it has none).
type pathSource interface {
	ProofPath() string
}

var gzipMagic = []byte{0x1f, 0x8b}

// readLRAT returns the whole proof: one os.ReadFile for a file-backed
// source, in-memory bytes as they are, io.ReadAll for anything else (a
// server spool, a pipe). Gzip is recognized by its magic bytes, as
// drat.ParseLRAT does, and inflated in memory. The proof is not mapped: a
// file truncated under a mapping would kill the process with SIGBUS.
func readLRAT(src drat.Source) ([]byte, error) {
	var data []byte
	var err error
	switch s := src.(type) {
	case drat.BytesSource:
		data = s
	case drat.FileSource:
		data, err = os.ReadFile(string(s))
	default:
		if ps, ok := src.(pathSource); ok && ps.ProofPath() != "" {
			data, err = os.ReadFile(ps.ProofPath())
		} else {
			data, err = readAll(src)
		}
	}
	if err != nil {
		return nil, err
	}
	if !bytes.HasPrefix(data, gzipMagic) {
		return data, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("lrat: gzip: %w", err)
	}
	if data, err = io.ReadAll(zr); err != nil {
		return nil, fmt.Errorf("lrat: gzip: %w", err)
	}
	return data, nil
}

func readAll(src drat.Source) ([]byte, error) {
	rc, err := src.Open()
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	return io.ReadAll(rc)
}
