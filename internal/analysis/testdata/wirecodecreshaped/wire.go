// Fixture: Msg gained a field after its codec was generated, so
// wire_codec.go no longer encodes the whole type.
package reshapedfix

//mnmwiregen:types Msg

type Msg struct {
	N     int
	Added bool
}
