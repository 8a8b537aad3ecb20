"""``repro-router``: run the fleet front door over repro-serve shards.

Examples::

    repro-router --listen 127.0.0.1:7700 \\
        --shard 127.0.0.1:7711 --shard 127.0.0.1:7712 \\
        --metrics 127.0.0.1:9200

    repro-router --listen /tmp/cec-router.sock \\
        --shard /tmp/cec-a.sock --shard /tmp/cec-b.sock

Clients talk to the router exactly as they would to one
``repro-serve`` (``repro-client --connect 127.0.0.1:7700 ...``); the
router consistent-hashes each submit onto its shards, brokers
cross-shard proof-cache transfers, and keeps the hash ring aligned
with shard health. It is ``repro-serve --shard ...`` under its own
name (see :mod:`repro.service.serve_cli`): the same options, the same
server, and ``--shard`` is required. The process runs until
SIGINT/SIGTERM or a client ``shutdown`` verb and then writes its
``repro-stats/1`` report to ``--stats-json`` when given.
"""

import sys

from ..service import serve_cli


def main(argv=None):
    return serve_cli.main(argv, router=True)


if __name__ == "__main__":
    sys.exit(main())
