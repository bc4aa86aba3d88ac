package device

import (
	"zen-go/nets/fwd"
	"zen-go/nets/pkt"
	"zen-go/zen"
)

func init() {
	zen.RegisterModel("nets/device.forward-path", func() zen.Lintable {
		// Three-device chain A - B - C with default routes east.
		a := &Device{Name: "A"}
		aw, ae := a.AddInterface("w"), a.AddInterface("e")
		b := &Device{Name: "B"}
		bw, be := b.AddInterface("w"), b.AddInterface("e")
		c := &Device{Name: "C"}
		cw, ce := c.AddInterface("w"), c.AddInterface("e")
		for _, d := range []struct {
			dev  *Device
			east *Interface
		}{{a, ae}, {b, be}, {c, ce}} {
			d.dev.Table = fwd.New(fwd.Entry{Prefix: pkt.Pfx(0, 0, 0, 0, 0), Port: d.east.ID})
		}
		Link(ae, bw)
		Link(be, cw)
		path := []*Interface{aw, ae, bw, be, cw, ce}
		return zen.Func(func(p zen.Value[pkt.Packet]) zen.Value[zen.Opt[pkt.Packet]] {
			return ForwardPath(path, p)
		})
	},
		// ZL602/ZL603: every hop's table is a lone default route, so each
		// /0 match (BAnd(dst, 0) == 0) is statically true by construction.
		// The branches those matches leave dead are reported once, as
		// these comparisons, not again as ZL201.
		"ZL602", "ZL603")
}
