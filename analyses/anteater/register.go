package anteater

import (
	"zen-go/nets/device"
	"zen-go/nets/fwd"
	"zen-go/nets/pkt"
	"zen-go/zen"
)

func init() {
	// Plain is a one-field predicate by design: it only inspects the
	// underlay header, so the overlay fields are intentionally unread.
	zen.RegisterModel("analyses/anteater.plain", func() zen.Lintable {
		return zen.Func(Plain)
	}, "ZL401")
	// The reachability condition Reachable feeds to Find: a plain packet
	// that survives the whole path.
	zen.RegisterModel("analyses/anteater.reach-condition", func() zen.Lintable {
		a := &device.Device{Name: "A"}
		aw, ae := a.AddInterface("w"), a.AddInterface("e")
		b := &device.Device{Name: "B"}
		bw, be := b.AddInterface("w"), b.AddInterface("e")
		a.Table = fwd.New(fwd.Entry{Prefix: pkt.Pfx(0, 0, 0, 0, 0), Port: ae.ID})
		b.Table = fwd.New(fwd.Entry{Prefix: pkt.Pfx(0, 0, 0, 0, 0), Port: be.ID})
		device.Link(ae, bw)
		path := []*device.Interface{aw, ae, bw, be}
		return zen.Func(func(p zen.Value[pkt.Packet]) zen.Value[bool] {
			return zen.And(Plain(p), zen.IsSome(device.ForwardPath(path, p)))
		})
	},
		// ZL201: Plain rules out an underlay header, so ForwardPath's
		// arm for tunneled packets (the underlay's destination) is
		// unreachable; ZL401: like Plain, the condition only constrains
		// the underlay header, leaving overlay fields free for Find.
		// ZL602/ZL603: both devices forward on /0 default routes, whose
		// zero-mask matches are statically true by construction.
		"ZL201", "ZL401", "ZL602", "ZL603")
}
