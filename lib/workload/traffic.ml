module Command = Thc_replication.Command

let closed_loop ~rid_base ~n_replicas ~quorum ~ident ~window ~think_us ~ops
    ~wrap ~unwrap : 'm Thc_sim.Engine.behavior =
  if window <= 0 then invalid_arg "Traffic.closed_loop: window must be positive";
  let ops = Array.of_list ops in
  let collector = Command.Collector.create ~quorum in
  let next = ref 0 in
  let send_next (ctx : 'm Thc_sim.Engine.ctx) =
    if !next < Array.length ops then begin
      let i = !next in
      incr next;
      let rid = rid_base + i in
      let sr = Command.make ~ident ~rid ops.(i) in
      Command.Collector.sent collector ~rid ~at:(ctx.now ());
      if Thc_obsv.Span.enabled ctx.spans then
        Thc_obsv.Span.mark ctx.spans ~client:ctx.self ~rid Thc_obsv.Span.Submit
          ~at:(ctx.now ());
      for replica = 0 to n_replicas - 1 do
        ctx.send replica (wrap sr)
      done
    end
  in
  {
    Thc_sim.Engine.init =
      (fun ctx ->
        (* Prime the window; afterwards completions pull in the rest, so the
           number outstanding never exceeds [window]. *)
        for _ = 1 to min window (Array.length ops) do
          send_next ctx
        done);
    on_message =
      (fun ctx ~src:_ m ->
        match unwrap m with
        | None -> ()
        | Some (reply : Command.reply) ->
          (match Command.Collector.add collector reply with
          | None -> ()
          | Some { sent_at; _ } ->
            (match sent_at with
            | Some t0 ->
              if Thc_obsv.Span.enabled ctx.spans then
                Thc_obsv.Span.mark ctx.spans ~client:ctx.self ~rid:reply.rid
                  Thc_obsv.Span.Reply_done ~at:(ctx.now ());
              ctx.output
                (Thc_sim.Obs.Client_done
                   { rid = reply.rid; latency_us = Int64.sub (ctx.now ()) t0 })
            | None -> ());
            if Int64.compare think_us 0L > 0 then
              ctx.set_timer ~delay:think_us ~tag:0
            else send_next ctx));
    on_timer = (fun ctx _tag -> send_next ctx);
  }
