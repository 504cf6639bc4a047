package filterc

import (
	"fmt"
	"strings"
	"testing"
)

// fmtString is the fmt-based rendering Value.String replaced; the
// debugger's outputs and the obs goldens are written in it.
func fmtString(v Value) string {
	if v.Type == nil {
		return "<nil>"
	}
	switch v.Type.Kind {
	case KScalar:
		switch v.Type.Base {
		case Str:
			return fmt.Sprintf("%q", v.S)
		case Void:
			return "void"
		default:
			return fmt.Sprintf("%d", v.I)
		}
	case KArray:
		parts := make([]string, len(v.Elems))
		for i, e := range v.Elems {
			parts[i] = fmtString(e)
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case KStruct:
		parts := make([]string, len(v.Elems))
		for i, e := range v.Elems {
			parts[i] = fmt.Sprintf("%s = %s", v.Type.Fields[i].Name, fmtString(e))
		}
		return "{" + strings.Join(parts, ", ") + "}"
	default:
		return "?"
	}
}

// TestValueStringMatchesFmt checks that Value.String renders every kind
// of value byte-for-byte as the fmt-based rendering did.
func TestValueStringMatchesFmt(t *testing.T) {
	var cases []Value
	for _, b := range []BaseType{U8, U16, U32, I8, I16, I32, Bool} {
		for _, i := range []int64{0, 1, 9, 10, 99, 100, 101, 255, 256, 1000, 65535,
			1 << 31, 1<<32 - 1, -1, -99, -100, -128, -129, -32768, -1 << 31} {
			cases = append(cases, Int(b, i))
		}
	}
	cases = append(cases,
		Value{Type: Scalar(I32), I: -1 << 63}, Value{Type: Scalar(U32), I: 1<<63 - 1},
		StringVal(""), StringVal("ipf"), StringVal(`quote " and \ back`),
		StringVal("tab\tnew\nline"), StringVal("naïve ☃"), StringVal("\x00\xff"),
		VoidVal(), Value{}, Value{Type: &Type{Kind: TypeKind(99)}})

	arr := Zero(ArrayOf(Scalar(I16), 4))
	for i, n := range []int64{-300, 0, 42, 1234} {
		arr.Elems[i] = Int(I16, n)
	}
	pt := &Type{Kind: KStruct, Name: "Pt", Fields: []Field{{"X", Scalar(I32)}, {"Y", Scalar(U8)}}}
	pt2 := Zero(pt)
	pt2.Elems[0], pt2.Elems[1] = Int(I32, -7), Int(U8, 200)
	blk := &Type{Kind: KStruct, Name: "Blk", Fields: []Field{
		{"Addr", Scalar(U32)}, {"Pts", ArrayOf(pt, 2)}, {"Tag", Scalar(Str)},
		{"Rows", ArrayOf(ArrayOf(Scalar(U8), 2), 2)},
	}}
	nested := Zero(blk)
	nested.Elems[0] = Int(U32, 0x145D)
	nested.Elems[1].Elems[1] = pt2
	nested.Elems[2] = StringVal("mb")
	nested.Elems[3].Elems[1].Elems[0] = Int(U8, 17)
	cases = append(cases, arr, Zero(ArrayOf(Scalar(U8), 0)), Zero(pt), pt2, nested,
		Zero(&Type{Kind: KStruct, Name: "Empty"}),
		Value{Type: ArrayOf(Scalar(U8), 2), Elems: []Value{{}, Int(U8, 3)}})

	for _, v := range cases {
		if got, want := v.String(), fmtString(v); got != want {
			t.Errorf("%v value: String() = %q, fmt rendering %q", v.Type, got, want)
		}
	}
}

// TestSmallScalarStringAllocFree pins the property the payload path
// relies on: rendering a scalar below 100 allocates nothing.
func TestSmallScalarStringAllocFree(t *testing.T) {
	v := Int(U16, 42)
	if n := testing.AllocsPerRun(100, func() { _ = v.String() }); n != 0 {
		t.Fatalf("rendering %s made %.0f allocations", v, n)
	}
}
