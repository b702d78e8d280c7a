// Package eventlog is the platform's structured event log: leveled,
// key=value, ring-buffered. It replaces the ad-hoc printf hook the
// reconfiguration server started with — events are kept in memory (a
// fixed ring, oldest evicted first) so the /statusz endpoint and
// post-mortem debugging can dump the recent history without the server
// ever having written to disk or stdout.
//
// A nil *Log is a no-op, so components can log unconditionally.
package eventlog

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Level classifies events.
type Level uint8

// Levels, in increasing severity.
const (
	Debug Level = iota
	Info
	Warn
	Error
)

func (l Level) String() string {
	switch l {
	case Debug:
		return "debug"
	case Info:
		return "info"
	case Warn:
		return "warn"
	case Error:
		return "error"
	default:
		return fmt.Sprintf("Level(%d)", uint8(l))
	}
}

// MarshalText implements encoding.TextMarshaler (JSON-friendly levels).
func (l Level) MarshalText() ([]byte, error) { return []byte(l.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler so JSON dumps of
// the log (e.g. /statusz) decode back into typed levels.
func (l *Level) UnmarshalText(text []byte) error {
	switch string(text) {
	case "debug":
		*l = Debug
	case "info":
		*l = Info
	case "warn":
		*l = Warn
	case "error":
		*l = Error
	default:
		return fmt.Errorf("eventlog: unknown level %q", text)
	}
	return nil
}

// Field is one key=value pair.
type Field struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// Event is one structured log record.
type Event struct {
	Time   time.Time `json:"t"`
	Level  Level     `json:"level"`
	Msg    string    `json:"msg"`
	Fields []Field   `json:"fields,omitempty"`
}

// String renders the event as a single logfmt-style line.
func (e Event) String() string {
	var b strings.Builder
	b.WriteString(e.Time.Format(time.RFC3339Nano))
	b.WriteString(" level=")
	b.WriteString(e.Level.String())
	b.WriteString(" msg=")
	b.WriteString(quoteIfNeeded(e.Msg))
	for _, f := range e.Fields {
		b.WriteByte(' ')
		b.WriteString(f.Key)
		b.WriteByte('=')
		b.WriteString(quoteIfNeeded(f.Value))
	}
	return b.String()
}

func quoteIfNeeded(s string) string {
	if strings.ContainsAny(s, " \t\"=") || s == "" {
		return fmt.Sprintf("%q", s)
	}
	return s
}

// Log is a concurrency-safe ring buffer of events.
type Log struct {
	mu    sync.Mutex
	ring  []Event
	next  int    // ring index of the next write
	total uint64 // events ever accepted

	// MinLevel drops events below it (default Debug: keep everything).
	MinLevel Level

	// Mirror, when non-nil, additionally receives one printf-style line
	// per event: liquid-server -v points it at the console.
	Mirror func(format string, args ...any)

	// now is stubbed in tests.
	now func() time.Time
}

// New returns a log retaining the most recent capacity events
// (minimum 1).
func New(capacity int) *Log {
	if capacity < 1 {
		capacity = 1
	}
	return &Log{ring: make([]Event, 0, capacity), now: time.Now}
}

// kvFields folds an alternating key, value, key, value… list into
// fields; a trailing odd value gets key "value".
func kvFields(kvs []any) []Field {
	if len(kvs) == 0 {
		return nil
	}
	out := make([]Field, 0, (len(kvs)+1)/2)
	for i := 0; i < len(kvs); i += 2 {
		if i+1 >= len(kvs) {
			out = append(out, Field{Key: "value", Value: fmt.Sprint(kvs[i])})
			break
		}
		out = append(out, Field{Key: fmt.Sprint(kvs[i]), Value: fmt.Sprint(kvs[i+1])})
	}
	return out
}

func (l *Log) log(level Level, msg string, kvs ...any) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if level < l.MinLevel {
		l.mu.Unlock()
		return
	}
	e := Event{Time: l.now(), Level: level, Msg: msg, Fields: kvFields(kvs)}
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, e)
	} else {
		l.ring[l.next] = e
	}
	l.next = (l.next + 1) % cap(l.ring)
	l.total++
	mirror := l.Mirror
	l.mu.Unlock()
	if mirror != nil {
		mirror("%s", e.String())
	}
}

// Debugf records a debug event. kvs alternate key, value.
func (l *Log) Debugf(msg string, kvs ...any) { l.log(Debug, msg, kvs...) }

// Infof records an info event.
func (l *Log) Infof(msg string, kvs ...any) { l.log(Info, msg, kvs...) }

// Warnf records a warning event.
func (l *Log) Warnf(msg string, kvs ...any) { l.log(Warn, msg, kvs...) }

// Errorf records an error event.
func (l *Log) Errorf(msg string, kvs ...any) { l.log(Error, msg, kvs...) }

// Events returns the retained events, oldest first.
func (l *Log) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, len(l.ring))
	if len(l.ring) < cap(l.ring) {
		return append(out, l.ring...)
	}
	out = append(out, l.ring[l.next:]...)
	return append(out, l.ring[:l.next]...)
}

// Total returns how many events were ever accepted (including those
// the ring has since evicted).
func (l *Log) Total() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Dropped returns how many accepted events the ring has evicted.
func (l *Log) Dropped() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total - uint64(len(l.ring))
}

// WriteText dumps the retained events as one line each.
func (l *Log) WriteText(w io.Writer) error {
	for _, e := range l.Events() {
		if _, err := io.WriteString(w, e.String()+"\n"); err != nil {
			return err
		}
	}
	return nil
}

// MarshalJSON renders the retained events as a JSON array.
func (l *Log) MarshalJSON() ([]byte, error) {
	return json.Marshal(l.Events())
}
