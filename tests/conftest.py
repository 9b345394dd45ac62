import pathlib
import struct
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent))


def lift_fixture(blob, manifest):
    """Parse a fixture binary and decode every function the manifest names."""
    from lios.disasm import build_function
    from lios.macho import parse_macho
    from lios.objc import load_model

    image = parse_macho(blob)
    model = load_model(image)
    functions = {}
    for _name, (start, end) in manifest["function_ranges"].items():
        functions[start] = build_function(image, start, end, model=model)
    return image, model, functions


def graph_bundle(builder, linked=False, **kwargs):
    """Lift a corpus fixture and assemble its graph, optionally with passes."""
    from lios.graph import build_from_frontends, link_pass, mark_entrypoints

    blob, manifest = builder(**kwargs)
    image, model, functions = lift_fixture(blob, manifest)
    g = build_from_frontends(image, model, functions)
    if linked:
        link_pass(g)
        mark_entrypoints(g)
    return manifest, image, model, functions, g


def segment_fileoff_field(blob, segname):
    """File offset of the `fileoff` field of a named LC_SEGMENT_64 command."""
    from lios.macho import LC_SEGMENT_64

    offset = 32
    for _ in range(struct.unpack_from("<I", blob, 16)[0]):
        cmd, size = struct.unpack_from("<II", blob, offset)
        name = blob[offset + 8 : offset + 24].rstrip(b"\0").decode()
        if cmd == LC_SEGMENT_64 and name == segname:
            return offset + 40
        offset += size
    raise AssertionError(f"no segment {segname}")
