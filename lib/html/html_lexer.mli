(** A practical HTML tokenizer.

    Handles start/end tags with quoted, unquoted, and valueless
    attributes, self-closing syntax, comments, doctype, and the raw-text
    content model of [script] and [style] (their bodies are emitted as a
    single [Text] token, unparsed).  Malformed input never raises: stray
    [<] characters are treated as text, unterminated constructs run to
    end of input.  This is the §3 substrate: pages become token streams
    before being abstracted to tag sequences. *)

val tokenize : string -> Html_token.t list

val tags_only : Html_token.t list -> Html_token.t list
(** Drop text, comments, and doctype — the paper's abstraction keeps
    only the tag skeleton. *)

val decode_entities : string -> string
(** Resolve character references ([&lt;] [&gt;] [&amp;] [&quot;]
    [&apos;], and numeric [&#n;] / [&#xh;] for printable ASCII, where
    [n] is decimal digits and [h] hex digits only); anything
    unrecognized is kept verbatim.  Exposed so the fused front-end
    ([Front]) can decode a refined attribute-value {e slice} with
    byte-identical semantics to the tree path's attribute decoding. *)

val numeric_ref : string -> int -> int -> int
(** [numeric_ref s pos len] reads the reference body [s.[pos .. pos+len-1]]
    (between [&] and [;], e.g. ["#65"] or ["#x41"]) and returns its
    code when it is a well-formed numeric reference to printable ASCII
    ([32 <= c < 127]), else [-1].  Shared with [Front], which decides
    from it whether a reference keeps a text run all-space. *)
