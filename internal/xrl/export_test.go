package xrl

// I32 returns an i32 atom.
func I32(name string, v int32) Atom { return Atom{Name: name, Type: TypeI32, IntVal: int64(v)} }

// I64 returns an i64 atom.
func I64(name string, v int64) Atom { return Atom{Name: name, Type: TypeI64, IntVal: v} }

// U64 returns a u64 atom.
func U64(name string, v uint64) Atom { return Atom{Name: name, Type: TypeU64, IntVal: int64(v)} }

// I32Arg returns the named i32 argument.
func (as Args) I32Arg(name string) (int32, error) {
	a, err := as.typed(name, TypeI32)
	return int32(a.IntVal), err
}

// U64Arg returns the named u64 argument.
func (as Args) U64Arg(name string) (uint64, error) {
	a, err := as.typed(name, TypeU64)
	return uint64(a.IntVal), err
}

// I64Arg returns the named i64 argument.
func (as Args) I64Arg(name string) (int64, error) {
	a, err := as.typed(name, TypeI64)
	return a.IntVal, err
}
