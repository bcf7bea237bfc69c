import sys
from pathlib import Path

from hypothesis import Phase, settings

sys.path.insert(0, str(Path(__file__).parent))

# --hypothesis-profile=mutant, for runs against deliberately broken copies of
# the engine: no shrink phase, so a failing property stops at its first
# failing example instead of minimising it. The default profile is unchanged.
settings.register_profile("mutant", phases=[Phase.explicit, Phase.reuse, Phase.generate,
                                            Phase.target])
