// Fixture: the codec manifest matches the //mnmwiregen:types list exactly,
// but the generated file predates frame-header versioning and carries
// no //mnmwiregen:wireversion stamp at all.
package nostampfix

//mnmwiregen:types Fine

// Fine has a current codec fingerprint — only the stamp is missing.
type Fine struct {
	A int
}
