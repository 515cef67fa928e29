// Positive fixture: a package with a wire.go must list every local
// type it hands to the wire surface (interface methods named Send /
// Broadcast / Write / CompareAndSwap with interface-typed payload
// parameters — the core.Env and transport.Transport shapes).
package wirefix

// Value mirrors core.Value.
type Value any

// Env mirrors the wire surface of core.Env.
type Env interface {
	Send(to int, payload Value) error
	Broadcast(payload Value) error
	Write(ref string, v Value) error
	CompareAndSwap(ref string, expected, desired Value) (bool, Value, error)
}

// SpanContext mirrors core.SpanContext: a struct, not a payload.
type SpanContext struct{ TraceID, SpanID, Clock uint64 }

// Transport mirrors the wire surface of transport.Transport, whose
// payload is not its last parameter.
type Transport interface {
	Send(from, to int, payload Value, sc SpanContext) error
}

// RegisteredMsg is listed, and wire_codec.go is its current generated
// codec, so the only findings are the unlisted sends.
type RegisteredMsg struct{ X int }

type UnregisteredMsg struct{ Y int }

type UnregisteredReg struct{ N int }

type UnregisteredVal int

type UnregisteredLink struct{ Z int }

func Use(env Env) error {
	if err := env.Broadcast(RegisteredMsg{X: 1}); err != nil {
		return err
	}
	if err := env.Send(1, UnregisteredMsg{Y: 2}); err != nil { // want "not listed in this package's //mnmwiregen:types directive"
		return err
	}
	if err := env.Write("r", UnregisteredReg{N: 3}); err != nil { // want "not listed in this package's //mnmwiregen:types directive"
		return err
	}
	// Both CAS payload positions count; one listing gap, one report.
	_, _, err := env.CompareAndSwap("r", UnregisteredVal(0), UnregisteredVal(1)) // want "not listed in this package's //mnmwiregen:types directive"
	if err != nil {
		return err
	}
	// Foreign and basic types are their own package's (or internal/wire's
	// builtin) responsibility, not this package's.
	if err := env.Broadcast(7); err != nil {
		return err
	}
	return env.Write("r", "plain string")
}

func UseTransport(tr Transport) error {
	if err := tr.Send(0, 1, RegisteredMsg{X: 4}, SpanContext{}); err != nil {
		return err
	}
	return tr.Send(0, 1, UnregisteredLink{Z: 5}, SpanContext{TraceID: 1}) // want "not listed in this package's //mnmwiregen:types directive"
}

// concrete is NOT the wire surface: a Write on a concrete receiver (the
// hash.Hash / net.Conn shape) must not be collected.
type concrete struct{}

func (concrete) Write(ref string, v Value) error { return nil }

func ConcreteUse() error {
	return concrete{}.Write("r", UnregisteredMsg{})
}
