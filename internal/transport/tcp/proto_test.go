package tcp_test

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"fmt"
	"io"
	"math/big"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/mnm-model/mnm/internal/benor"
	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/transport"
	"github.com/mnm-model/mnm/internal/transport/tcp"
)

// logCapture collects Logf output from a transport under test.
type logCapture struct {
	mu    sync.Mutex
	lines []string
}

func (lc *logCapture) logf(format string, args ...any) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.lines = append(lc.lines, fmt.Sprintf(format, args...))
}

func (lc *logCapture) contains(substr string) bool {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	for _, l := range lc.lines {
		if strings.Contains(l, substr) {
			return true
		}
	}
	return false
}

func (lc *logCapture) dump() string {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return strings.Join(lc.lines, "\n")
}

// awaitLinkState polls until LinkState(from,to) on tr reaches want.
func awaitLinkState(t *testing.T, tr transport.Transport, from, to core.ProcID, want transport.LinkState) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if tr.LinkState(from, to) == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("link %v->%v stuck at %v, want %v", from, to, tr.LinkState(from, to), want)
}

// soloNode starts node 0 of a two-node group 0 whose node 1 lives at
// peerAddr — a raw socket the test drives by hand — and dials it.
func soloNode(t *testing.T, peerAddr string, logf func(string, ...any)) member {
	t.Helper()
	tr, err := tcp.New(tcp.Config{ListenAddr: "127.0.0.1:0", Logf: logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	g := openView(t, tr, 0, transport.GroupConfig{N: 2, Hosted: []core.ProcID{0}, Addrs: []string{tr.Addr(), peerAddr}})
	return member{tr, g}
}

// TestVersionMismatchClosesLink drives both sides of the handshake from
// a raw socket standing in for a build with another frame layout — the
// skew a real upgrade produces. The only bytes two versions share are the
// 4-byte preamble, so that is the whole rejection: the acceptor answers a
// foreign version with its own preamble and closes, and a dialer that
// reads a foreign preamble back stops — LinkClosed, terminally — rather
// than burn CPU in a reconnect loop against a peer that can never accept
// it. A connection that merely dies is not a rejection and redials.
func TestVersionMismatchClosesLink(t *testing.T) {
	t.Run("acceptor answers a foreign version with its own preamble", func(t *testing.T) {
		var logs logCapture
		tr, err := tcp.New(tcp.Config{ListenAddr: "127.0.0.1:0", Logf: logs.logf})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		openView(t, tr, 0, transport.GroupConfig{N: 1}) // the node accepts from its first group on
		conn, err := net.Dial("tcp", tr.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := conn.Write([]byte("MNM\x03")); err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(conn)
		if err != nil || string(got) != "MNM\x04" {
			t.Fatalf("read %q, err %v; want exactly the acceptor's preamble MNM\\x04, then EOF", got, err)
		}
		if !logs.contains("peer speaks wire version 3, this node 4") {
			t.Errorf("acceptor never logged the mismatch; logs:\n%s", logs.dump())
		}
	})

	t.Run("dialer goes terminal on a foreign preamble", func(t *testing.T) {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer lis.Close()
		go func() {
			for {
				conn, err := lis.Accept()
				if err != nil {
					return
				}
				// Answer, then drain until the dialer hangs up, so the
				// close is a clean FIN and never a reset.
				conn.Write([]byte("MNM\x05"))
				io.Copy(io.Discard, conn)
				conn.Close()
			}
		}()
		var logs logCapture
		tr := soloNode(t, lis.Addr().String(), logs.logf)
		// A queued message must not make the transport hang on close.
		if err := tr.Send(0, 1, "never delivered"); err != nil {
			t.Fatalf("send: %v", err)
		}
		awaitLinkState(t, tr.Group, 0, 1, transport.LinkClosed)
		// Terminal means terminal: no background redial may revive or
		// flap the link after the rejection.
		time.Sleep(250 * time.Millisecond)
		if st := tr.LinkState(0, 1); st != transport.LinkClosed {
			t.Fatalf("link 0->1 left LinkClosed: now %v (reconnect loop after version reject)", st)
		}
		if !logs.contains("peer speaks wire version 5, this node 4 (not retrying)") {
			t.Errorf("dialer never logged that it stopped retrying; logs:\n%s", logs.dump())
		}
		closed := make(chan error, 1)
		go func() { closed <- tr.Transport.Close() }()
		select {
		case err := <-closed:
			if err != nil {
				t.Fatalf("Close: %v", err)
			}
		case <-time.After(2 * time.Second): // well under the 5s drain timeout
			t.Fatal("Close hangs draining a frame queued on a terminally rejected link")
		}
	})

	t.Run("a connection that just closes is not terminal", func(t *testing.T) {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer lis.Close()
		accepted := make(chan struct{})
		go func() {
			// Hang up on the first connection without a word, then stop
			// listening: the redials that follow are refused and back off,
			// which holds the link in LinkConnecting for the test to see.
			if conn, err := lis.Accept(); err == nil {
				conn.Close()
			}
			lis.Close()
			close(accepted)
		}()
		var logs logCapture
		tr := soloNode(t, lis.Addr().String(), logs.logf)
		<-accepted
		deadline := time.Now().Add(10 * time.Second)
		for !logs.contains("retrying in") && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		if !logs.contains("retrying in") {
			t.Fatalf("dialer never redialed after a plain close; logs:\n%s", logs.dump())
		}
		awaitLinkState(t, tr.Group, 0, 1, transport.LinkConnecting)
		if logs.contains("not retrying") {
			t.Errorf("a plain close was treated as a version rejection; logs:\n%s", logs.dump())
		}
	})
}

// selfSignedTLS builds a throwaway CA-less server certificate for
// 127.0.0.1 and returns a tls.Config usable for both roles, as the
// transport requires.
func selfSignedTLS(t *testing.T) *tls.Config {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "mnm-test"},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(time.Hour),
		KeyUsage:              x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:           []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		IPAddresses:           []net.IP{net.IPv4(127, 0, 0, 1)},
		IsCA:                  true,
		BasicConstraintsValid: true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	pool := x509.NewCertPool()
	pool.AddCert(cert)
	return &tls.Config{
		Certificates: []tls.Certificate{{Certificate: [][]byte{der}, PrivateKey: key}},
		RootCAs:      pool,
		MinVersion:   tls.VersionTLS13,
	}
}

// TestTLSLoopback runs a two-node system entirely over TLS: handshake,
// sequenced data, acks, and an RPC round trip.
func TestTLSLoopback(t *testing.T) {
	tlsCfg := selfSignedTLS(t)
	nodes := newClusterWith(t, 2, [][]core.ProcID{{0}, {1}}, func(i int, cfg *tcp.Config) {
		cfg.TLS = tlsCfg
	})
	nodes[1].SetHandler(func(from core.ProcID, req core.Value) (core.Value, error) {
		return req, nil
	})

	payloads := []core.Value{42, "over tls", benor.Msg{Phase: benor.PhaseP, Round: 9, Val: benor.V1}}
	for _, p := range payloads {
		if err := nodes[0].Send(0, 1, p); err != nil {
			t.Fatalf("send %v: %v", p, err)
		}
	}
	for _, want := range payloads {
		m := recvOne(t, nodes[1], 1)
		if !reflect.DeepEqual(m.Payload, want) {
			t.Fatalf("got payload %#v, want %#v", m.Payload, want)
		}
	}
	resp, err := nodes[0].Call(0, 1, "echo over tls")
	if err != nil {
		t.Fatalf("rpc over tls: %v", err)
	}
	if resp != "echo over tls" {
		t.Fatalf("rpc echo: got %#v", resp)
	}
}
