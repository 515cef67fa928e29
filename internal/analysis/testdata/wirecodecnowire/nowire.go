// Negative fixture: without a wire.go the package has opted out of the
// wire-type convention (it never crosses the socket transport), so
// nothing is reported even for unlisted payloads.
package nowirefix

type Value any

type Env interface {
	Send(to int, payload Value) error
}

type NeverRegistered struct{ Z int }

func Use(env Env) error {
	return env.Send(0, NeverRegistered{Z: 9})
}
