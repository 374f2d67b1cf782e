package httpd

import (
	"fmt"
	"io"
	"net/http"
	"sync"
)

// subBuffer is each subscriber's event buffer; a subscriber that falls
// this far behind starts dropping events rather than blocking the
// publisher (the monitoring loop must never wait on a slow client).
const subBuffer = 16

// EventStream is a minimal Server-Sent Events broker: Publish fans an
// event out to every connected client of its ServeHTTP handler. It
// exists for the /events endpoints — pushing alert transitions to
// operators without polling — and deliberately implements only the
// subset of SSE the CLIs need: named events with data payloads,
// per-subscriber drop-on-overflow, graceful detach on client
// disconnect.
//
// An EventStream is safe for concurrent Publish and ServeHTTP.
type EventStream struct {
	mu      sync.Mutex
	subs    map[chan string]struct{}
	dropped int64
}

// NewEventStream returns an empty broker.
func NewEventStream() *EventStream {
	return &EventStream{subs: map[chan string]struct{}{}}
}

// Publish sends one event (SSE "event:" name plus one-line "data:"
// payload, typically JSON) to every subscriber. Subscribers with full
// buffers miss the event; Publish never blocks.
func (s *EventStream) Publish(event, data string) {
	msg := fmt.Sprintf("event: %s\ndata: %s\n\n", event, data)
	s.mu.Lock()
	for ch := range s.subs {
		select {
		case ch <- msg:
		default: // slow client: drop rather than stall the control loop
			s.dropped++
		}
	}
	s.mu.Unlock()
}

// WriteProm renders the broker's counters as Prometheus text; the serve
// modes append it to their /metrics output.
func (s *EventStream) WriteProm(w io.Writer) {
	s.mu.Lock()
	subs, dropped := len(s.subs), s.dropped
	s.mu.Unlock()
	fmt.Fprintf(w, "# HELP dicer_sse_subscribers Connected /events subscribers.\n# TYPE dicer_sse_subscribers gauge\ndicer_sse_subscribers %d\n", subs)
	fmt.Fprintf(w, "# HELP dicer_sse_dropped_total Events dropped on full subscriber buffers.\n# TYPE dicer_sse_dropped_total counter\ndicer_sse_dropped_total %d\n", dropped)
}

func (s *EventStream) subscribe() chan string {
	ch := make(chan string, subBuffer)
	s.mu.Lock()
	s.subs[ch] = struct{}{}
	s.mu.Unlock()
	return ch
}

func (s *EventStream) unsubscribe(ch chan string) {
	s.mu.Lock()
	delete(s.subs, ch)
	s.mu.Unlock()
}

// ServeHTTP implements the SSE endpoint: it streams published events to
// the client until the client disconnects (or the server drains).
func (s *EventStream) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	// An immediate comment line both confirms the stream to the client
	// and forces the headers out.
	fmt.Fprint(w, ": ok\n\n")
	fl.Flush()

	ch := s.subscribe()
	defer s.unsubscribe(ch)
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case msg := <-ch:
			if _, err := fmt.Fprint(w, msg); err != nil {
				return
			}
			fl.Flush()
		}
	}
}
