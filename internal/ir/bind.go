package ir

import (
	"fmt"
	"reflect"
	"strconv"
)

// A Hole stands, inside an attribute value, for one constant of the graph's
// bind vector (Graph.Binds). A frontend lifts each literal of a statement into
// a hole and appends the literal to the bind vector, so statements that differ
// only in their constants build graphs of one shape: the canonical encoding
// formats attribute values with %#v, which writes a hole through its GoString
// — its type alone, never its slot. Graph.Fingerprint is therefore a shape key
// and subtree fingerprints stay position independent; whatever keys a result
// adds the constants the holes stand for (AppendBind).
//
// A frontend numbers holes in one deterministic walk of its statement, so two
// graphs of one shape number their holes alike.
type Hole interface {
	// BindSlot is the index of the hole's constant in the bind vector.
	BindSlot() int
	// GoString renders the hole as its type only.
	GoString() string
}

var holeType = reflect.TypeOf((*Hole)(nil)).Elem()

// AppendSlots appends to dst the slot of every hole in the attribute value v,
// in the order the canonical encoding writes them: v itself when it is a hole,
// else the elements of a slice or array, the exported fields of a struct and
// the value of an interface or pointer, in turn. Map values are not searched:
// no frontend puts a hole in one.
func AppendSlots(dst []int, v any) []int {
	return appendSlots(dst, reflect.ValueOf(v))
}

func appendSlots(dst []int, rv reflect.Value) []int {
	switch rv.Kind() {
	case reflect.Invalid:
		return dst
	case reflect.Interface, reflect.Pointer:
		if rv.IsNil() {
			return dst
		}
		if rv.Kind() == reflect.Interface {
			return appendSlots(dst, rv.Elem())
		}
	}
	if rv.Type().Implements(holeType) {
		if rv.CanInterface() {
			dst = append(dst, rv.Interface().(Hole).BindSlot())
		}
		return dst
	}
	switch rv.Kind() {
	case reflect.Pointer:
		dst = appendSlots(dst, rv.Elem())
	case reflect.Struct:
		for i := 0; i < rv.NumField(); i++ {
			if f := rv.Field(i); f.CanInterface() {
				dst = appendSlots(dst, f)
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < rv.Len(); i++ {
			dst = appendSlots(dst, rv.Index(i))
		}
	}
	return dst
}

// AppendBind appends to dst a text form of one bound constant followed by a
// separator. Within one hole type the form is injective — strings are quoted,
// floats print every digit — so a key spelling the constants of several
// holes after their shape separates exactly the executions that differ.
func AppendBind(dst []byte, v any) []byte {
	switch x := v.(type) {
	case int64:
		dst = strconv.AppendInt(dst, x, 10)
	case float64:
		dst = strconv.AppendFloat(dst, x, 'g', -1, 64)
	case string:
		dst = strconv.AppendQuote(dst, x)
	case bool:
		dst = strconv.AppendBool(dst, x)
	default:
		dst = fmt.Appendf(dst, "%#v", x)
	}
	return append(dst, ',')
}
