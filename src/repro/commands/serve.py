"""``pgschema serve``: the long-lived schema-registry service (docs/SERVICE.md)."""


import asyncio
import contextlib
import signal

from ..service import ValidationService


def run(args) -> int:
    service = ValidationService(
        args.registry_dir,
        host=args.host,
        port=args.port,
        max_queue=args.max_queue,
        max_batch=args.max_batch,
        jobs=args.jobs,
        deadline=args.deadline,
    )

    async def serve() -> None:
        host, port = await service.start()
        print(f"pgschema service listening on http://{host}:{port}/v1/", flush=True)
        loop = asyncio.get_running_loop()
        stopping = asyncio.Event()
        # Explicit handlers, not KeyboardInterrupt: a daemon launched as a
        # shell background job (CI's `pgschema serve &`) inherits SIGINT
        # *ignored* -- no job control means async commands start with
        # SIG_IGN -- and Python never installs its default handler over an
        # inherited ignore.  add_signal_handler overrides the disposition,
        # so `kill -INT`/`kill -TERM` always reach the graceful drain.
        installed = []
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stopping.set)
                installed.append(sig)
            except (NotImplementedError, OSError):  # pragma: no cover
                pass  # non-POSIX event loop: KeyboardInterrupt still works
        server_task = asyncio.ensure_future(service.serve_forever())
        stop_task = asyncio.ensure_future(stopping.wait())
        try:
            await asyncio.wait(
                {server_task, stop_task}, return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)
            for task in (server_task, stop_task):
                task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await task
            await service.stop()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        # covers the window before the handlers install, and platforms
        # whose loop cannot install them; asyncio.run cancels the task and
        # the finally-drain still runs
        pass
    return 0
