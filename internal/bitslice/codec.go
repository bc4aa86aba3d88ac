// Transpose codec: moving values between the scalar world (one
// interp.Value per packet) and the bitsliced world (one register per bit
// position, one lane per packet).
//
// A value flattens to a bit stream in the same order Compile lays out
// registers: booleans contribute one bit, bitvectors their width LSB
// first, objects their fields in type order. Bind scatters that stream
// across the input registers at a single lane; Lane gathers the output
// registers back into a value.

package bitslice

import (
	"fmt"

	"zen-go/internal/core"
	"zen-go/internal/interp"
)

// Bind writes one concrete input value into the given lane (0..63) of
// variable id's input registers. Rebinding a lane overwrites it; lanes
// left unbound keep whatever bits the register file already held.
func (p *Plan) Bind(regs []uint64, id int32, lane int, v *interp.Value) error {
	if lane < 0 || lane >= Lanes {
		return fmt.Errorf("bitslice: lane %d out of range [0,%d)", lane, Lanes)
	}
	words, ok := p.vars[id]
	if !ok {
		return fmt.Errorf("bitslice: plan has no variable with id %d", id)
	}
	var declared *core.Type
	for _, vi := range p.varInfo {
		if vi.ID == id {
			declared = vi.Type
			break
		}
	}
	if declared != nil && !v.Type.Same(declared) {
		return fmt.Errorf("bitslice: bind type mismatch for variable %d: got %s, want %s",
			id, v.Type, declared)
	}
	pos := 0
	writeValue(regs, words, &pos, lane, v)
	return nil
}

// BindLanes binds vals[i] to lane i of variable id.
func (p *Plan) BindLanes(regs []uint64, id int32, vals []*interp.Value) error {
	if len(vals) > Lanes {
		return fmt.Errorf("bitslice: %d values exceed %d lanes", len(vals), Lanes)
	}
	for i, v := range vals {
		if err := p.Bind(regs, id, i, v); err != nil {
			return err
		}
	}
	return nil
}

func writeValue(regs []uint64, words []int32, pos *int, lane int, v *interp.Value) {
	switch v.Type.Kind {
	case core.KindBool:
		setBit(regs, words[*pos], lane, v.B)
		*pos++
	case core.KindBV:
		for i := 0; i < v.Type.Width; i++ {
			setBit(regs, words[*pos], lane, v.U>>uint(i)&1 == 1)
			*pos++
		}
	case core.KindObject:
		for _, f := range v.Fields {
			writeValue(regs, words, pos, lane, f)
		}
	default:
		panic(&UnsupportedError{Reason: "list-typed value in Bind"})
	}
}

func setBit(regs []uint64, word int32, lane int, bit bool) {
	mask := uint64(1) << uint(lane)
	if bit {
		regs[word] |= mask
	} else {
		regs[word] &^= mask
	}
}

// Lane reads the result value in the given lane after Run.
func (p *Plan) Lane(regs []uint64, lane int) *interp.Value {
	pos := 0
	return readValue(regs, p.out, &pos, lane, p.outType)
}

func readValue(regs []uint64, words []int32, pos *int, lane int, t *core.Type) *interp.Value {
	switch t.Kind {
	case core.KindBool:
		b := regs[words[*pos]]>>uint(lane)&1 == 1
		*pos++
		return interp.Bool(b)
	case core.KindBV:
		var u uint64
		for i := 0; i < t.Width; i++ {
			u |= (regs[words[*pos]] >> uint(lane) & 1) << uint(i)
			*pos++
		}
		return interp.BV(t, u)
	case core.KindObject:
		fields := make([]*interp.Value, len(t.Fields))
		for i, f := range t.Fields {
			fields[i] = readValue(regs, words, pos, lane, f.Type)
		}
		return interp.Object(t, fields...)
	}
	panic(&UnsupportedError{Reason: "list-typed value in Lane"})
}
