# Convenience targets; everything runs with the in-tree sources
# (PYTHONPATH=src) so no install step is required.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test bench micro experiments examples faults-smoke trace-demo \
        metrics-smoke compare docs-check lint perfbench-test \
        perfbench-check clean

test:            ## tier-1 suite (ROADMAP.md verify command)
	$(PYTHON) -m pytest -x -q

bench:           ## regenerate every table & figure with assertions
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

micro:           ## host ns per fabric DMA and kernel timeouts/s (no gate)
	$(PYTHON) benchmarks/micro.py

experiments:     ## print all reproduced tables/figures
	$(PYTHON) -m repro.experiments

examples:        ## run every examples/*.py script end to end
	@for script in examples/*.py; do \
	    echo "examples: $$script"; \
	    $(PYTHON) $$script > /dev/null \
	        || { echo "examples: $$script failed"; exit 1; }; \
	done

faults-smoke:    ## fault-rate sweep across all four schemes (docs/faults.md)
	$(PYTHON) -m repro.experiments faults

trace-demo:      ## traced headline run -> trace.json (ui.perfetto.dev)
	$(PYTHON) -m repro.experiments --trace trace.json headline
	@echo "wrote trace.json - load it in https://ui.perfetto.dev"

metrics-smoke:   ## metered headline CSVs identical; planes never perturb a run
	rm -rf smoke && mkdir -p smoke
	$(PYTHON) -m repro.experiments --metrics smoke/metrics-a.csv headline
	$(PYTHON) -m repro.experiments --metrics smoke/metrics-b.csv headline
	@test -s smoke/metrics-a.csv || (echo "metrics CSV is empty" && exit 1)
	@cmp smoke/metrics-a.csv smoke/metrics-b.csv \
	    || (echo "metrics CSV differs across same-seed runs" && exit 1)
	@echo "metrics-smoke OK: $$(wc -l < smoke/metrics-a.csv) rows, byte-identical"
	$(PYTHON) -m repro.experiments faults > smoke/faults-plain.txt
	$(PYTHON) -m repro.experiments --metrics smoke/metrics-faults.csv faults \
	    > smoke/faults-metered.txt
	@for run in faults-plain faults-metered; do \
	    sed -e '/regenerated in/d' -e '/^\[metrics:/,$$d' smoke/$$run.txt \
	        > smoke/$$run.tables; done
	@diff smoke/faults-plain.tables smoke/faults-metered.tables \
	    || (echo "metering changed the faults tables" && exit 1)
	@echo "metrics-smoke OK: metered faults tables identical to unmetered"
	$(PYTHON) -m repro.experiments --trace-jsonl smoke/fig11-both.jsonl \
	    --metrics smoke/fig11-both.csv fig11 > /dev/null
	$(PYTHON) -m repro.experiments --metrics smoke/fig11-metrics.csv fig11 \
	    > /dev/null
	$(PYTHON) -m repro.experiments --trace-jsonl smoke/fig11-trace.jsonl fig11 \
	    > /dev/null
	@cmp smoke/fig11-both.csv smoke/fig11-metrics.csv \
	    || (echo "tracing changed the fig11 metrics CSV" && exit 1)
	@cmp smoke/fig11-both.jsonl smoke/fig11-trace.jsonl \
	    || (echo "metering changed the fig11 trace JSONL" && exit 1)
	@echo "metrics-smoke OK: fig11 planes identical alone and together"

compare:         ## outputs byte-identical to another checkout: PARENT=<dir>
	@test -n "$(PARENT)" \
	    || (echo "usage: make compare PARENT=<checkout>" && exit 1)
	rm -rf compare && mkdir -p compare/here compare/parent
	@for side in here parent; do \
	    if [ $$side = here ]; then tree=.; else tree="$(PARENT)"; fi; \
	    out=$(CURDIR)/compare/$$side; \
	    echo "compare: running fig11, fig3, faults, fig12a in $$tree"; \
	    (cd "$$tree" && export PYTHONPATH=src \
	     && $(PYTHON) -m repro.experiments --trace-jsonl $$out/fig11.jsonl \
	            --metrics $$out/fig11.csv fig11 > $$out/fig11.out \
	     && $(PYTHON) -m repro.experiments --trace-jsonl $$out/fig3.jsonl \
	            fig3 > $$out/fig3.out \
	     && $(PYTHON) -m repro.experiments faults > $$out/faults.out \
	     && $(PYTHON) -m repro.experiments --metrics $$out/fig12a.csv \
	            fig12a > $$out/fig12a.out) \
	        || exit 1; \
	    for run in fig11 fig3 faults fig12a; do \
	        sed -e '/regenerated in/d' -e '/^\[trace:/d' \
	            -e '/^\[metrics:/d' $$out/$$run.out > $$out/$$run.txt; \
	    done; \
	done
	@status=0; for file in fig11.jsonl fig11.csv fig11.txt fig3.jsonl \
	        fig3.txt faults.txt fig12a.csv fig12a.txt; do \
	    if cmp -s compare/here/$$file compare/parent/$$file; then \
	        echo "compare OK: $$file identical"; continue; fi; \
	    echo "compare: $$file differs from $(PARENT)"; status=1; \
	    case $$file in *.jsonl) $(PYTHON) -c "$$JSONL_WITHOUT_IDS" \
	        compare/here/$$file compare/parent/$$file;; esac; \
	done; exit $$status

# For a differing trace, `make compare` also reports whether the two
# files match once span ids (`id`, `parent_id`) are stripped, and if
# not, how many lines each side has left over (the first ten shown).
define JSONL_WITHOUT_IDS
import json, sys
from collections import Counter

def spans(path):
    with open(path) as lines:
        return [json.dumps({key: value
                            for key, value in json.loads(line).items()
                            if key not in ("id", "parent_id")},
                           sort_keys=True) for line in lines]

name = sys.argv[1].rsplit("/", 1)[-1]
here, parent = spans(sys.argv[1]), spans(sys.argv[2])
if here == parent:
    print(f"compare: {name} matches with span ids stripped")
else:
    print(f"compare: {name} differs with span ids stripped too")
    for side, extra in (("here", Counter(here) - Counter(parent)),
                        ("parent", Counter(parent) - Counter(here))):
        lines = sorted(extra.elements())
        print(f"  {len(lines)} line(s) only {side}")
        for line in lines[:10]:
            print(f"    {line}")
    if Counter(here) == Counter(parent):
        print("  the same lines, in another order")
endef
export JSONL_WITHOUT_IDS

docs-check:      ## catalogs <-> docs/{tracing,metrics,lint}.md lock-step check
	$(PYTHON) -m pytest -q tests/test_docs_contract.py

lint:            ## simlint over src tests benchmarks examples (its default)
	$(PYTHON) -m repro.lint

perfbench-test:  ## the host-time benchmark's own unit tests (perfbench/)
	$(PYTHON) -m unittest discover -s perfbench

perfbench-check: ## simulated results match perfbench/reference.json, seed 1
	@for workload in swift-md5 d2d-4k d2d-4k-observed; do \
	    $(PYTHON) perfbench/run.py --workload $$workload --seed 1 \
	        --seconds 1 --trace 0 \
	        || { echo "perfbench-check: $$workload failed"; exit 1; }; \
	done

clean:
	rm -rf .pytest_cache .hypothesis trace.json smoke compare
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
