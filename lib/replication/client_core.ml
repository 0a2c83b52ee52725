let behavior ~rid_base ~n_replicas ~quorum ~ident ~plan ~wrap ~unwrap :
    'm Thc_sim.Engine.behavior =
  let plan = Array.of_list plan in
  let collector = Command.Collector.create ~quorum in
  {
    init =
      (fun ctx ->
        Array.iteri (fun i (delay, _) -> ctx.set_timer ~delay ~tag:i) plan);
    on_message =
      (fun ctx ~src:_ m ->
        match unwrap m with
        | Some reply ->
          (match Command.Collector.add collector reply with
          | Some { sent_at = Some t0; _ } ->
            if Thc_obsv.Span.enabled ctx.spans then
              Thc_obsv.Span.mark ctx.spans ~client:ctx.self ~rid:reply.rid
                Thc_obsv.Span.Reply_done ~at:(ctx.now ());
            ctx.output
              (Thc_sim.Obs.Client_done
                 { rid = reply.rid; latency_us = Int64.sub (ctx.now ()) t0 })
          | Some { sent_at = None; _ } | None -> ())
        | None -> ());
    on_timer =
      (fun ctx tag ->
        if tag >= 0 && tag < Array.length plan then begin
          let _, op = plan.(tag) in
          let rid = rid_base + tag in
          let sr = Command.make ~ident ~rid op in
          Command.Collector.sent collector ~rid ~at:(ctx.now ());
          if Thc_obsv.Span.enabled ctx.spans then
            Thc_obsv.Span.mark ctx.spans ~client:ctx.self ~rid
              Thc_obsv.Span.Submit ~at:(ctx.now ());
          for replica = 0 to n_replicas - 1 do
            ctx.send replica (wrap sr)
          done
        end);
  }
