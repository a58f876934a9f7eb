package serve

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"
	"time"

	"vero/gbdt"
)

// startScaled serves a one-leaf model through NewHTTPServer — the
// constructor cmd/veroserve listens with — with every timeout divided by the same factor, so
// the slow-client cases below take fractions of a second and still
// exercise the fields the constructor set, in the proportions it set
// them.
func startScaled(t *testing.T, div time.Duration) (*http.Server, string) {
	t.Helper()
	model, err := gbdt.DecodeModel([]byte(`{"num_class":1,"learning_rate":1,"init_score":[0],
		"objective":"square","num_feature":4,
		"trees":[{"num_class":1,"nodes":[{"feature":-1,"left":-1,"right":-1,"weights":[2.5]}]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(model, "test", Options{Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	hs := NewHTTPServer("", srv.Handler())
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.ReadTimeout != readTimeout ||
		hs.WriteTimeout != writeTimeout || hs.IdleTimeout != idleTimeout {
		t.Fatalf("NewHTTPServer left a timeout unset: %+v", hs)
	}
	if min(readHeaderTimeout, readTimeout, writeTimeout, idleTimeout) <= 0 {
		t.Fatal("a connection timeout is disabled")
	}
	hs.ReadHeaderTimeout /= div
	hs.ReadTimeout /= div
	hs.WriteTimeout /= div
	hs.IdleTimeout /= div
	hs.ErrorLog = log.New(io.Discard, "", 0)
	ts := httptest.NewUnstartedServer(nil)
	ts.Config = hs
	ts.Start()
	t.Cleanup(ts.Close)
	return hs, ts.Listener.Addr().String()
}

// closedWithin reads conn until the server closes it and fails if that
// takes longer than limit. It returns what the server sent first. A reset
// counts as closed: a server that answers and closes while the client is
// still writing gets its connection reset by the kernel.
func closedWithin(t *testing.T, conn net.Conn, limit time.Duration) string {
	t.Helper()
	start := time.Now()
	_ = conn.SetReadDeadline(start.Add(limit))
	data, err := io.ReadAll(conn)
	if err != nil && !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("connection still open after %v (%v); server sent %q", time.Since(start), err, data)
	}
	return string(data)
}

// TestSlowClientsAreCutOff is the slow-loris test: a client that dribbles
// its headers, one that dribbles its body, and one that holds an idle
// keep-alive connection are each disconnected by the timeout that covers
// them, not served for as long as they care to stay.
func TestSlowClientsAreCutOff(t *testing.T) {
	const div = 100 // 10 s → 100 ms, 30 s → 300 ms, 120 s → 1.2 s
	hs, addr := startScaled(t, div)
	dial := func(t *testing.T) net.Conn {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn
	}
	// dribble sends one byte of s every interval until the server hangs up.
	dribble := func(conn net.Conn, s string, every time.Duration) {
		for i := 0; i < len(s); i++ {
			if _, err := conn.Write([]byte{s[i]}); err != nil {
				return
			}
			time.Sleep(every)
		}
	}

	t.Run("headers", func(t *testing.T) {
		conn := dial(t)
		go dribble(conn, "POST /v1/models/default/predict HTTP/1.1\r\nHost: x\r\n"+strings.Repeat("X-Pad: y\r\n", 100), hs.ReadHeaderTimeout/5)
		if got := closedWithin(t, conn, 5*hs.ReadHeaderTimeout); strings.Contains(got, "200 OK") {
			t.Fatalf("slow headers were served: %q", got)
		}
	})
	t.Run("body", func(t *testing.T) {
		conn := dial(t)
		body := `{"dense":[[1]]}` + strings.Repeat(" ", 200)
		fmt.Fprintf(conn, "POST /v1/models/default/predict HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n", len(body))
		go dribble(conn, body, hs.ReadTimeout/5)
		// The handler's body read fails at ReadTimeout: an error envelope,
		// then the connection closes — long before 215 bytes arrive.
		got := closedWithin(t, conn, 5*hs.ReadTimeout)
		if strings.Contains(got, "200 OK") || !strings.Contains(got, "400 Bad Request") {
			t.Fatalf("slow body: server sent %q, want a 400 envelope", got)
		}
	})
	t.Run("idle keep-alive", func(t *testing.T) {
		conn := dial(t)
		body := `{"dense":[[1]]}`
		fmt.Fprintf(conn, "POST /v1/models/default/predict HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatal(err)
		}
		answer, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(answer), `"scores":[[2.5]]`) {
			t.Fatalf("a prompt request answered %d %s", resp.StatusCode, answer)
		}
		closedWithin(t, conn, 3*hs.IdleTimeout)
	})
}
