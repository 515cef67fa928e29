// Positive fixture: a package with a wire.go whose generated codec
// manifest (wire_codec.go) has drifted from the //mnmwiregen:types list
// in three ways — a listed type with no codec, a codec whose
// fingerprint no longer matches the type, and a codec for a type that
// is no longer listed.
package codecfix

//mnmwiregen:types Good Drifted Missing

// Good has a manifest entry with the correct fingerprint.
type Good struct {
	A int
	S string
}

// Drifted gained a field after its codec was generated.
type Drifted struct { // want "stale codec for Drifted"
	N     int
	Added bool
}

// Missing is listed but was never run through the generator.
type Missing struct { // want "missing from the wire_codec.go manifest"
	Q uint64
}
