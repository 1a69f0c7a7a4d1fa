(** Differential oracles for the serve subsystem.

    The streaming daemon's contract is that supervision is
    {e observation-free}: a session fed through {!Supervisor} must
    yield exactly the splits of the offline
    {!Extraction.matcher_splits}, for every job count, wherever the
    batch and chunk boundaries fall.  The degradation ladder is then
    attacked directly — an injected {!Guard_faults.Session_item} fault
    must leave every other session's outgoing frames byte-identical to
    the fault-free run; a shed [open], retried once capacity returns,
    must observe exactly the session it would have had; an exhausted
    budget must starve only its own session while ample fuel is
    unobservable.  {!Frame.decode} is checked total (any byte string
    answers [Ok] or [Error], never an exception) and inverse to the
    frame builders.

    The lean hot path is checked against the code it replaced: the
    fast decoder against the generic one (byte soup, every truncation
    of the four canonical shapes, and canonical frames mutated by key
    order, duplicates, extra fields, whitespace, escapes and
    non-canonical integers), {!Frame.encode_into} against the
    [Obs.Json] printer of the old [Obj] form for every outgoing
    constructor with hostile strings, and the push
    {!Extraction.cursor} against {!Extraction.matcher_stream_splits}
    and the offline {!Extraction.matcher_splits}. *)

val tests : count:int -> QCheck.Test.t list
