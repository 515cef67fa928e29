// Fixture: Msg was once listed and still has its generated codec, but the
// package now lists no wire types, so wire_codec.go is stray.
package strayfix

type Msg struct {
	N int
}
