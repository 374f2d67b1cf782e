package httpd

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Subscribers reports the number of connected clients.
func (s *EventStream) Subscribers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs)
}

func TestEventStreamDelivers(t *testing.T) {
	es := NewEventStream()
	srv := httptest.NewServer(es)
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type = %q", ct)
	}
	r := bufio.NewReader(resp.Body)
	// First frame is the ": ok" comment.
	line, err := r.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, ": ok") {
		t.Fatalf("greeting = %q, err %v", line, err)
	}

	// Wait for the subscription before publishing.
	deadline := time.Now().Add(2 * time.Second)
	for es.Subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscriber never registered")
		}
		time.Sleep(time.Millisecond)
	}
	es.Publish("alert", `{"firing":true}`)

	var got []string
	for len(got) < 2 {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("read: %v (got %q)", err, got)
		}
		line = strings.TrimRight(line, "\n")
		if line != "" {
			got = append(got, line)
		}
	}
	if got[0] != "event: alert" || got[1] != `data: {"firing":true}` {
		t.Fatalf("frames = %q", got)
	}
}

func TestEventStreamConcurrent(t *testing.T) {
	es := NewEventStream()
	srv := httptest.NewServer(es)
	defer srv.Close()

	// Each client reads a handful of events then disconnects; publishers
	// keep publishing until every client is gone, so nobody depends on
	// receiving one particular (droppable) event. The race detector owns
	// this test.
	const clients = 4
	var wg sync.WaitGroup
	var active atomic.Int32
	active.Store(clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer active.Add(-1)
			resp, err := http.Get(srv.URL)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			r := bufio.NewReader(resp.Body)
			seen := 0
			for seen < 10 {
				line, err := r.ReadString('\n')
				if err != nil {
					t.Errorf("client read: %v after %d events", err, seen)
					return
				}
				if strings.HasPrefix(line, "data: ") {
					seen++
				}
			}
		}()
	}
	var pubs sync.WaitGroup
	for p := 0; p < 4; p++ {
		pubs.Add(1)
		go func() {
			defer pubs.Done()
			for active.Load() > 0 {
				es.Publish("tick", "x")
				time.Sleep(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	pubs.Wait()
}

func TestEventStreamDropsSlowClient(t *testing.T) {
	es := NewEventStream()
	ch := es.subscribe()
	defer es.unsubscribe(ch)
	// Fill the buffer and keep publishing: must never block.
	done := make(chan struct{})
	go func() {
		for i := 0; i < subBuffer*4; i++ {
			es.Publish("tick", "x")
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Publish blocked on a slow subscriber")
	}
	if n := len(ch); n != subBuffer {
		t.Fatalf("buffered %d, want capped at %d", n, subBuffer)
	}
}

func TestAddPprof(t *testing.T) {
	mux := http.NewServeMux()
	AddPprof(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline status %d", resp.StatusCode)
	}
}
